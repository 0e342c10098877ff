// Package sim_test validates the simulated substrates: architecture
// models, CPU counters, the cooling circuit, fabric counters, workload
// models, and the device protocol servers.
package sim_test

import (
	"math"
	"testing"
	"time"

	"dcdb/internal/sim/arch"
	"dcdb/internal/sim/bacnet"
	"dcdb/internal/sim/cpu"
	"dcdb/internal/sim/fabric"
	"dcdb/internal/sim/facility"
	"dcdb/internal/sim/ipmi"
	"dcdb/internal/sim/snmp"
	"dcdb/internal/sim/workload"
)

func TestArchModelsOrdering(t *testing.T) {
	// KNL must be the worst performer at every rate, Skylake the best
	// in overhead terms (paper §6.2.2).
	for _, rate := range []float64{10, 1000, 100000} {
		knl := arch.KnightsLanding.HPLOverhead(rate, 0.5)
		sky := arch.Skylake.HPLOverhead(rate, 0.5)
		has := arch.Haswell.HPLOverhead(rate, 0.5)
		if rate >= 1000 && !(knl >= has && has >= sky) {
			t.Errorf("rate %v: overhead ordering KNL %.3f, Haswell %.3f, Skylake %.3f", rate, knl, has, sky)
		}
	}
	// Peak CPU loads roughly match Figure 7: Skylake ~3 %, KNL ~8 %.
	if l := arch.Skylake.PusherCPULoad(1e5); l < 2 || l > 4 {
		t.Errorf("Skylake peak load = %v", l)
	}
	if l := arch.KnightsLanding.PusherCPULoad(1e5); l < 6 || l > 10 {
		t.Errorf("KNL peak load = %v", l)
	}
	// Loads are linear in rate (the Figure 7 observation).
	m := arch.Haswell
	if math.Abs(m.PusherCPULoad(2000)-2*m.PusherCPULoad(1000)) > 1e-9 {
		t.Error("CPU load not linear in rate")
	}
}

func TestArchInterpolation(t *testing.T) {
	// Equation 1 exactly recovers a linear model.
	m := arch.Skylake
	la, lb := m.PusherCPULoad(1000), m.PusherCPULoad(50000)
	got := arch.InterpolateCPULoad(10000, 1000, la, 50000, lb)
	if math.Abs(got-m.PusherCPULoad(10000)) > 1e-9 {
		t.Errorf("Eq.1 interpolation = %v, want %v", got, m.PusherCPULoad(10000))
	}
	if arch.InterpolateCPULoad(5, 1, 2, 1, 2) != 2 {
		t.Error("degenerate interpolation")
	}
}

func TestArchSensorRateAndMemory(t *testing.T) {
	if r := arch.SensorRate(1000, time.Second); r != 1000 {
		t.Errorf("rate = %v", r)
	}
	if r := arch.SensorRate(10000, 100*time.Millisecond); r != 100000 {
		t.Errorf("rate = %v", r)
	}
	if arch.SensorRate(5, 0) != 0 {
		t.Error("zero interval rate")
	}
	// Memory grows with sensors and shrinks with interval; the most
	// intensive configuration lands in the few-hundred-MB region
	// (Figure 6b: ~350 MB at 10000 sensors / 100 ms).
	m := arch.Skylake
	big := m.PusherMemoryMB(10000, 100*time.Millisecond, 2*time.Minute)
	small := m.PusherMemoryMB(1000, time.Second, 2*time.Minute)
	if big < 200 || big > 700 {
		t.Errorf("intensive memory = %v MB", big)
	}
	if small > 50 {
		t.Errorf("production memory = %v MB (paper: well below 50)", small)
	}
	if m.PusherMemoryMB(10, 0, time.Minute) <= 0 {
		t.Error("degenerate memory")
	}
}

func TestArchCollectAgentLoad(t *testing.T) {
	// Figure 8 anchor points: ~1 core at 50k inserts/s, ~9 cores at
	// 500k inserts/s.
	if l := arch.CollectAgentCPULoad(50000); l < 60 || l > 140 {
		t.Errorf("load at 50k = %v%%", l)
	}
	if l := arch.CollectAgentCPULoad(500000); l < 700 || l > 1100 {
		t.Errorf("load at 500k = %v%%", l)
	}
}

func TestArchJitterDeterministic(t *testing.T) {
	a := arch.Jitter(1, 2, 3)
	b := arch.Jitter(1, 2, 3)
	c := arch.Jitter(3, 2, 1)
	if a != b {
		t.Error("jitter not deterministic")
	}
	if a == c {
		t.Error("jitter ignores order")
	}
	if a < 0 || a >= 1 {
		t.Errorf("jitter out of range: %v", a)
	}
	if arch.Round2(1.23456) != 1.23 {
		t.Error("Round2")
	}
}

func TestCPUMachineMonotonicity(t *testing.T) {
	m := cpu.NewMachine(4, 2.7e9, nil)
	base := time.Now()
	m.SetStart(base)
	for _, c := range cpu.Counters() {
		v1, err := m.ReadCounter(0, c, base.Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		v2, err := m.ReadCounter(0, c, base.Add(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if v2 <= v1 {
			t.Errorf("counter %v not monotonic: %d -> %d", c, v1, v2)
		}
	}
	// Deterministic: same (core, counter, time) -> same value.
	a, _ := m.ReadCounter(1, cpu.Instructions, base.Add(5*time.Second))
	b, _ := m.ReadCounter(1, cpu.Instructions, base.Add(5*time.Second))
	if a != b {
		t.Error("counter read not deterministic")
	}
	// Core skew distinguishes cores.
	c0, _ := m.ReadCounter(0, cpu.Instructions, base.Add(5*time.Second))
	c1, _ := m.ReadCounter(1, cpu.Instructions, base.Add(5*time.Second))
	if c0 == c1 {
		t.Error("cores indistinguishable")
	}
	if _, err := m.ReadCounter(99, cpu.Instructions, base); err == nil {
		t.Error("out-of-range core accepted")
	}
	if _, err := m.ReadCounter(0, cpu.Counter(99), base); err == nil {
		t.Error("unknown counter accepted")
	}
	if m.Cores() != 4 {
		t.Error("Cores")
	}
	if cpu.Instructions.String() != "instructions" || cpu.Counter(99).String() == "" {
		t.Error("counter names")
	}
	// Power and profile swap.
	if p := m.Power(base.Add(time.Second)); p <= 0 {
		t.Errorf("power = %v", p)
	}
	m.SetProfile(func(time.Duration) (float64, float64) { return 1, 111 })
	if p := m.Power(base.Add(time.Second)); p != 111 {
		t.Errorf("power after profile swap = %v", p)
	}
	// Pre-start reads clamp to zero elapsed.
	v, err := m.ReadCounter(0, cpu.Cycles, base.Add(-time.Hour))
	if err != nil || v != 0 {
		t.Errorf("pre-start read = %d, %v", v, err)
	}
}

func TestFacilityCircuit(t *testing.T) {
	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	c := facility.NewCoolMUC3(start)
	// Sample one simulated day.
	var effs []float64
	for h := 0; h < 24; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		p := c.PowerKW(at)
		heat := c.HeatRemovedKW(at)
		inlet := c.InletTempC(at)
		if p < c.BasePowerKW-0.01 || p > c.PeakPowerKW+0.01 {
			t.Errorf("h%d: power %v outside [%v, %v]", h, p, c.BasePowerKW, c.PeakPowerKW)
		}
		if inlet < c.InletMinC-0.01 || inlet > c.InletMaxC+0.01 {
			t.Errorf("h%d: inlet %v outside range", h, inlet)
		}
		if c.FlowKgS(at) <= 0 {
			t.Errorf("h%d: flow not positive", h)
		}
		effs = append(effs, heat/p)
	}
	// Mean efficiency ≈ 0.90 (the paper's headline number)…
	var sum float64
	for _, e := range effs {
		sum += e
	}
	mean := sum / float64(len(effs))
	if math.Abs(mean-0.90) > 0.02 {
		t.Errorf("mean efficiency = %v, want ≈0.90", mean)
	}
	// …and flat: the gap does not widen with inlet temperature.
	for _, e := range effs {
		if math.Abs(e-0.90) > 0.03 {
			t.Errorf("efficiency excursion %v", e)
		}
	}
}

func TestFabricCounters(t *testing.T) {
	start := time.Now()
	p := fabric.NewPort(start, 0)
	fs := fabric.NewFilesystem(start, 0, 0)
	t1 := start.Add(10 * time.Second)
	t2 := start.Add(20 * time.Second)
	if p.XmitData(t2) <= p.XmitData(t1) || p.RcvData(t2) <= p.RcvData(t1) {
		t.Error("port counters not monotonic")
	}
	if p.XmitPkts(t2) == 0 || p.RcvPkts(t2) == 0 {
		t.Error("packet counters zero")
	}
	if fs.BytesRead(t2) <= fs.BytesRead(t1) || fs.BytesWritten(t2) <= fs.BytesWritten(t1) {
		t.Error("fs counters not monotonic")
	}
	if fs.Reads(t2) == 0 || fs.Writes(t2) == 0 {
		t.Error("fs op counters zero")
	}
	if fs.Opens(t2) <= fs.Opens(t1) {
		t.Error("opens not monotonic")
	}
	if fs.Closes(t2) > fs.Opens(t2) {
		t.Error("more closes than opens")
	}
	// Pre-start reads are zero.
	if p.XmitData(start.Add(-time.Hour)) != 0 || fs.Opens(start.Add(-time.Hour)) != 0 {
		t.Error("pre-start counters not zero")
	}
}

func TestWorkloadOverheadShape(t *testing.T) {
	// AMG overhead grows linearly with node count and reaches ~9 % at
	// 1024 nodes; the other apps stay below 3 % (Figure 4).
	amg1024 := workload.AMG.Overhead(1024, false, 0.5)
	if amg1024 < 7 || amg1024 > 11 {
		t.Errorf("AMG at 1024 nodes = %v%%", amg1024)
	}
	if amg128 := workload.AMG.Overhead(128, false, 0.5); amg128 >= amg1024/2 {
		t.Errorf("AMG not scaling: 128 -> %v, 1024 -> %v", amg128, amg1024)
	}
	for _, a := range []workload.App{workload.LAMMPS, workload.Quicksilver, workload.Kripke} {
		for _, nodes := range []int{128, 256, 512, 1024} {
			if o := a.Overhead(nodes, false, 0.5); o > 3 {
				t.Errorf("%s at %d nodes = %v%% (should stay <3%%)", a.Name, nodes, o)
			}
		}
	}
	// Core (tester-only) configuration carries most of AMG's overhead
	// but little of the others'.
	if r := workload.AMG.Overhead(1024, true, 0.5) / workload.AMG.Overhead(1024, false, 0.5); r < 0.7 {
		t.Errorf("AMG core fraction = %v", r)
	}
	if r := workload.LAMMPS.Overhead(1024, true, 0.5) / workload.LAMMPS.Overhead(1024, false, 0.5); r > 0.6 {
		t.Errorf("LAMMPS core fraction = %v", r)
	}
	// Node counts below 128 clamp, jitter floors at zero.
	if workload.Kripke.Overhead(64, false, 0.5) != workload.Kripke.Overhead(128, false, 0.5) {
		t.Error("sub-128 node counts should clamp")
	}
	if workload.Kripke.Overhead(128, true, 0) < 0 {
		t.Error("negative overhead")
	}
}

func TestWorkloadProfilesSeparateApps(t *testing.T) {
	// Sampling instructions-per-Watt through each profile must
	// reproduce the ordering of Figure 10: Kripke and Quicksilver
	// means well above LAMMPS and AMG.
	means := make(map[string]float64)
	for _, a := range workload.CORAL2 {
		p := a.Profile()
		var sum float64
		const n = 600
		for i := 0; i < n; i++ {
			ipc, w := p(time.Duration(i) * 100 * time.Millisecond)
			instrPerSec := ipc * 1.3e9
			sum += instrPerSec / w
		}
		means[a.Name] = sum / n
	}
	if means["kripke"] <= means["lammps"] || means["quicksilver"] <= means["amg"] {
		t.Errorf("IPW ordering wrong: %v", means)
	}
	if means["kripke"] < 2.5e5 || means["kripke"] > 4.5e5 {
		t.Errorf("kripke mean = %v, want ≈3.6e5", means["kripke"])
	}
	if len(means) != 4 {
		t.Errorf("CORAL2 has %d applications, want 4", len(means))
	}
}

func TestIPMIServerClientDirect(t *testing.T) {
	srv := ipmi.NewServer()
	srv.AddSensor("Temp", func(time.Time) float64 { return 55 })
	srv.AddSensor("Power", func(time.Time) float64 { return 300 })
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := ipmi.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.GetReading("Temp")
	if err != nil || v != 55 {
		t.Fatalf("GetReading = %v, %v", v, err)
	}
	if _, err := c.GetReading("Nope"); err == nil {
		t.Error("unknown sensor accepted")
	}
	if _, err := ipmi.Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestSNMPAgentClientDirect(t *testing.T) {
	a := snmp.NewAgent()
	a.Register("1.2.3", func(time.Time) float64 { return 9.25 })
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := snmp.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Get("1.2.3")
	if err != nil || v != 9.25 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if _, err := c.Get("9.9.9"); err == nil {
		t.Error("unknown OID accepted")
	}
}

func TestBACnetServerClientDirect(t *testing.T) {
	s := bacnet.NewServer(map[uint32]bacnet.ObjectFunc{7: func(time.Time) float64 { return 21.5 }})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := bacnet.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.ReadProperty(7, bacnet.PropPresentValue)
	if err != nil || v != 21.5 {
		t.Fatalf("ReadProperty = %v, %v", v, err)
	}
	if _, err := c.ReadProperty(8, bacnet.PropPresentValue); err == nil {
		t.Error("unknown object accepted")
	}
	if _, err := c.ReadProperty(7, 12); err == nil {
		t.Error("unknown property accepted")
	}
}
