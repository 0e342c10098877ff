package workload

import (
	"math"
	"testing"
	"time"
)

func TestIPWModesWellFormed(t *testing.T) {
	for _, app := range []App{AMG, LAMMPS, Quicksilver, Kripke} {
		total := 0.0
		for _, m := range app.IPWModes {
			if m.Std <= 0 || m.Mean <= 0 || m.Weight <= 0 {
				t.Errorf("%s has degenerate mode %+v", app.Name, m)
			}
			total += m.Weight
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s mode weights sum to %v", app.Name, total)
		}
	}
}

func TestOverheadScalingShape(t *testing.T) {
	// Figure 4: AMG's fine-grained synchronisation makes its overhead
	// grow with node count much faster than the other apps'.
	amgSmall := AMG.Overhead(128, false, 0.5)
	amgLarge := AMG.Overhead(4096, false, 0.5)
	if amgLarge <= amgSmall {
		t.Errorf("AMG overhead flat: %v -> %v", amgSmall, amgLarge)
	}
	lmpSmall := LAMMPS.Overhead(128, false, 0.5)
	lmpLarge := LAMMPS.Overhead(4096, false, 0.5)
	if (amgLarge - amgSmall) <= (lmpLarge - lmpSmall) {
		t.Error("AMG should scale worse than LAMMPS")
	}
	// The Pusher core alone costs less than core + backends.
	if AMG.Overhead(1024, true, 0.5) >= AMG.Overhead(1024, false, 0.5) {
		t.Error("core-only overhead should be smaller")
	}
	// Overhead never goes negative for any jitter.
	for j := 0.0; j < 1.0; j += 0.13 {
		if o := Kripke.Overhead(128, true, j); o < 0 {
			t.Errorf("negative overhead %v at jitter %v", o, j)
		}
	}
}

func TestProfilesProduceValidSignals(t *testing.T) {
	for _, app := range []App{AMG, LAMMPS, Quicksilver, Kripke} {
		p := app.Profile()
		for _, e := range []time.Duration{0, time.Second, time.Minute, time.Hour} {
			ipc, watts := p(e)
			if ipc <= 0 || ipc > 10 || watts <= 0 || watts > 2000 {
				t.Errorf("%s profile at %v: ipc=%v watts=%v", app.Name, e, ipc, watts)
			}
		}
	}
}
