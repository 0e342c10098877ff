// Package workload models the reference applications of the paper's
// evaluation: four MPI applications from the CORAL-2 suite (AMG,
// LAMMPS, Quicksilver, Kripke). The real codes and the production
// systems they ran on are unavailable, so each application is captured
// by
//
//   - a phase profile driving the CPU-counter simulator (package
//     sim/cpu), reproducing the per-application instructions-per-Watt
//     distributions of Figure 10 — Kripke and Quicksilver compute-dense
//     and unimodal, LAMMPS and AMG lower and multi-modal; and
//
//   - an interference model reproducing Figure 4: AMG communicates with
//     many small MPI messages and fine-grained synchronisation, so its
//     overhead grows linearly with node count, while the other three
//     are only mildly affected by the Pusher's network traffic.
package workload

import (
	"math"
	"time"

	"dcdb/internal/sim/cpu"
)

// App identifies a reference application.
type App struct {
	// Name as used in figures ("amg", "lammps", …).
	Name string
	// BaseOverheadPct is the Pusher overhead at the smallest node
	// count (128) with the production plugin configuration (Figure 4,
	// "total" bars).
	BaseOverheadPct float64
	// ScaleSlopePct is the extra overhead accumulated per node-count
	// doubling beyond 128 nodes. AMG's fine-grained synchronisation
	// makes it large; the others are nearly flat.
	ScaleSlopePct float64
	// CoreFraction is the share of the total overhead attributable to
	// the Pusher core (tester plugin, communication only) rather than
	// the data-acquisition backends (Figure 4, "core" bars).
	CoreFraction float64
	// IPWModes are the modes of the per-core instructions-per-Watt
	// distribution (Figure 10): mean, stddev and weight per mode, in
	// units of 1e5 instructions/W.
	IPWModes []IPWMode
}

// IPWMode is one Gaussian component of an application's
// instructions-per-Watt distribution.
type IPWMode struct {
	Mean, Std, Weight float64
}

// The four CORAL-2 applications with shapes matching Figures 4 and 10.
var (
	AMG = App{
		Name: "amg", BaseOverheadPct: 1.1, ScaleSlopePct: 2.6, CoreFraction: 0.85,
		IPWModes: []IPWMode{{Mean: 0.9, Std: 0.18, Weight: 0.55}, {Mean: 1.6, Std: 0.25, Weight: 0.45}},
	}
	LAMMPS = App{
		Name: "lammps", BaseOverheadPct: 1.3, ScaleSlopePct: 0.25, CoreFraction: 0.35,
		IPWModes: []IPWMode{{Mean: 1.2, Std: 0.2, Weight: 0.6}, {Mean: 2.1, Std: 0.3, Weight: 0.4}},
	}
	Quicksilver = App{
		Name: "quicksilver", BaseOverheadPct: 0.9, ScaleSlopePct: 0.2, CoreFraction: 0.4,
		IPWModes: []IPWMode{{Mean: 3.1, Std: 0.35, Weight: 1.0}},
	}
	Kripke = App{
		Name: "kripke", BaseOverheadPct: 0.6, ScaleSlopePct: 0.15, CoreFraction: 0.4,
		IPWModes: []IPWMode{{Mean: 3.6, Std: 0.4, Weight: 1.0}},
	}
)

// CORAL2 lists the four applications in Figure 4's order.
var CORAL2 = []App{Kripke, Quicksilver, LAMMPS, AMG}

// Overhead predicts the Pusher overhead percent for a weak-scaling run
// at the given node count (Figure 4). coreOnly selects the tester-only
// "core" configuration. jitter in [0,1) adds the deterministic
// run-to-run noise visible in the paper's bars.
func (a App) Overhead(nodes int, coreOnly bool, jitter float64) float64 {
	doublings := math.Log2(float64(nodes) / 128)
	if doublings < 0 {
		doublings = 0
	}
	o := a.BaseOverheadPct + a.ScaleSlopePct*doublings
	if coreOnly {
		o *= a.CoreFraction
	}
	o += (jitter - 0.5) * 0.3
	if o < 0 {
		return 0
	}
	return o
}

// Profile returns a cpu.Profile whose instructions-per-Watt statistics
// follow the application's modal structure. The profile cycles through
// the modes with smooth transitions, which is what produces the
// multi-modal densities of LAMMPS and AMG in Figure 10.
func (a App) Profile() cpu.Profile {
	modes := a.IPWModes
	return func(elapsed time.Duration) (float64, float64) {
		t := elapsed.Seconds()
		// Pick the active mode by cycling with dwell time 20 s.
		phase := math.Mod(t/20, 1)
		cum := 0.0
		mode := modes[len(modes)-1]
		for _, m := range modes {
			cum += m.Weight
			if phase < cum {
				mode = m
				break
			}
		}
		// Within-mode wander: a couple of incommensurate sinusoids
		// stand in for turbulence around the mode mean.
		wander := mode.Std * (0.6*math.Sin(t/3.1) + 0.4*math.Sin(t/1.7))
		ipw := (mode.Mean + wander) * 1e5 // instructions per Watt
		power := 260 + 25*math.Sin(t/13)
		// ipc follows from ipw: instr/s = ipw * W; cycles/s = clock.
		const clock = 1.3e9 // KNL-class nominal clock (CooLMUC-3, §7.2)
		ipc := ipw * power / clock
		return ipc, power
	}
}
