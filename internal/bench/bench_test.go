package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"dcdb/internal/sim/arch"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Arch] = r
		if r.Sensors <= 0 || r.OverheadPct < 0 {
			t.Errorf("row %+v malformed", r)
		}
	}
	// Ordering as in the paper: KNL worst, Haswell best.
	if !(byName["KnightsLanding"].OverheadPct > byName["Skylake"].OverheadPct &&
		byName["Skylake"].OverheadPct > byName["Haswell"].OverheadPct) {
		t.Errorf("overhead ordering broken: %+v", byName)
	}
	// Within 2x of the paper's absolute values.
	for _, r := range rows {
		ratio := r.OverheadPct / r.PaperPct
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s overhead %.2f vs paper %.2f (ratio %.2f)", r.Arch, r.OverheadPct, r.PaperPct, ratio)
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "SuperMUC-NG") {
		t.Error("render missing system name")
	}
}

func TestFig4Shape(t *testing.T) {
	pts := Fig4()
	if len(pts) != 4*4*2 {
		t.Fatalf("points = %d", len(pts))
	}
	get := func(app string, nodes int, core bool) float64 {
		for _, p := range pts {
			if p.App == app && p.Nodes == nodes && p.Core == core {
				return p.OverheadPct
			}
		}
		t.Fatalf("missing point %s/%d/%v", app, nodes, core)
		return 0
	}
	// AMG grows linearly and peaks ~9 % at 1024 nodes.
	amg := get("amg", 1024, false)
	if amg < 7 || amg > 11 {
		t.Errorf("AMG@1024 = %v", amg)
	}
	if get("amg", 128, false) > amg/2 {
		t.Error("AMG not scaling with nodes")
	}
	// Others stay under 3 %.
	for _, app := range []string{"lammps", "quicksilver", "kripke"} {
		for _, n := range NodeCounts {
			if o := get(app, n, false); o > 3 {
				t.Errorf("%s@%d = %v", app, n, o)
			}
		}
	}
	// For AMG the core config carries most of the overhead.
	if get("amg", 1024, true) < 0.6*get("amg", 1024, false) {
		t.Error("AMG core fraction too small")
	}
	var buf bytes.Buffer
	RenderFig4(&buf, pts)
	if !strings.Contains(buf.String(), "amg") {
		t.Error("render missing app")
	}
}

func TestFig5Shape(t *testing.T) {
	for _, m := range []string{"Skylake", "Haswell", "KnightsLanding"} {
		_ = m
	}
	sky := Fig5(archByName(t, "Skylake"))
	knl := Fig5(archByName(t, "KnightsLanding"))
	if len(sky) != 25 || len(knl) != 25 {
		t.Fatalf("cells = %d, %d", len(sky), len(knl))
	}
	// Worst corner (100 ms × 10000 sensors) matches the paper's scale.
	worst := func(cells []Fig5Cell) float64 {
		var w float64
		for _, c := range cells {
			if c.Interval == 100*time.Millisecond && c.Sensors == 10000 {
				w = c.OverheadPct
			}
		}
		return w
	}
	if w := worst(knl); w < 2 || w > 6 {
		t.Errorf("KNL worst cell = %v (paper: 3.5)", w)
	}
	if worst(knl) <= worst(sky) {
		t.Error("KNL should exceed Skylake in the worst corner")
	}
	// Production-like configs (≤1000 sensors) stay below ~1 %.
	for _, c := range knl {
		if c.Sensors <= 1000 && c.Interval >= time.Second && c.OverheadPct > 1.2 {
			t.Errorf("production config %v/%d = %v%%", c.Interval, c.Sensors, c.OverheadPct)
		}
	}
	var buf bytes.Buffer
	RenderFig5(&buf, sky)
	if !strings.Contains(buf.String(), "Skylake") {
		t.Error("render missing arch")
	}
}

func TestFig6Shape(t *testing.T) {
	cells := Fig6()
	if len(cells) != 25 {
		t.Fatalf("cells = %d", len(cells))
	}
	var worstMem, prodMem float64
	for _, c := range cells {
		if c.Interval == 100*time.Millisecond && c.Sensors == 10000 {
			worstMem = c.MemoryMB
		}
		if c.Interval == time.Second && c.Sensors == 1000 {
			prodMem = c.MemoryMB
		}
	}
	if worstMem < 200 || worstMem > 700 {
		t.Errorf("worst-case memory = %v MB (paper ≈350)", worstMem)
	}
	if prodMem > 50 {
		t.Errorf("production memory = %v MB (paper: well below 50)", prodMem)
	}
	// CPU load peaks around 3 % (Skylake).
	var peak float64
	for _, c := range cells {
		if c.CPULoadPct > peak {
			peak = c.CPULoadPct
		}
	}
	if peak < 2 || peak > 4 {
		t.Errorf("peak CPU load = %v%%", peak)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, cells)
	if !strings.Contains(buf.String(), "memory usage") {
		t.Error("render missing panel")
	}
}

func TestFig7Shape(t *testing.T) {
	series := Fig7()
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	byName := map[string]Fig7Series{}
	for _, s := range series {
		byName[s.Arch] = s
		// Distinctly linear: R² ≈ 1 and Eq.1 interpolation near-exact.
		if s.Fit.R2 < 0.999 {
			t.Errorf("%s R2 = %v", s.Arch, s.Fit.R2)
		}
		if s.EqErr > 0.01 {
			t.Errorf("%s Eq.1 error = %v", s.Arch, s.EqErr)
		}
	}
	if !(byName["KnightsLanding"].PeakAt > byName["Haswell"].PeakAt &&
		byName["Haswell"].PeakAt > byName["Skylake"].PeakAt) {
		t.Error("peak load ordering broken")
	}
	// Paper peaks: Skylake ~3 %, KNL ~8 %.
	if p := byName["Skylake"].PeakAt; p < 2 || p > 4 {
		t.Errorf("Skylake peak = %v", p)
	}
	if p := byName["KnightsLanding"].PeakAt; p < 6 || p > 10 {
		t.Errorf("KNL peak = %v", p)
	}
	var buf bytes.Buffer
	RenderFig7(&buf, series)
	if !strings.Contains(buf.String(), "Slope") {
		t.Error("render missing fit")
	}
}

func TestFig8Shape(t *testing.T) {
	cells := Fig8()
	if len(cells) != len(HostCounts)*len(SweepSensors) {
		t.Fatalf("cells = %d", len(cells))
	}
	var at50x1000, at50x10000 float64
	for _, c := range cells {
		if c.Hosts == 50 && c.Sensors == 1000 {
			at50x1000 = c.CPULoadPct
		}
		if c.Hosts == 50 && c.Sensors == 10000 {
			at50x10000 = c.CPULoadPct
		}
	}
	// Paper: one core saturated at 50×1000; ~900 % at 50×10000.
	if at50x1000 < 60 || at50x1000 > 150 {
		t.Errorf("50x1000 load = %v%%", at50x1000)
	}
	if at50x10000 < 700 || at50x10000 > 1100 {
		t.Errorf("50x10000 load = %v%%", at50x10000)
	}
	var buf bytes.Buffer
	RenderFig8(&buf, cells)
	if !strings.Contains(buf.String(), "Hosts") {
		t.Error("render missing grid")
	}
}

func TestMeasuredAgentThroughput(t *testing.T) {
	perSec, ns := MeasuredAgentThroughput(50 * time.Millisecond)
	if perSec < 10000 {
		t.Errorf("agent ingest = %.0f readings/s (suspiciously slow)", perSec)
	}
	if ns <= 0 {
		t.Error("ns per reading not positive")
	}
	// Batched ingest is faster per reading.
	tpBatched, nsBatched := MeasuredAgentThroughputBatched(50*time.Millisecond, 32)
	if tpBatched <= 0 {
		t.Error("batched throughput not positive")
	}
	if nsBatched >= ns {
		t.Logf("batched %.0fns vs single %.0fns (machine-dependent, not fatal)", nsBatched, ns)
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(24, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 200 {
		t.Errorf("samples = %d", res.Samples)
	}
	if math.Abs(res.MeanEfficiency-0.90) > 0.03 {
		t.Errorf("mean efficiency = %v (paper ≈0.90)", res.MeanEfficiency)
	}
	// Flat across inlet temperature: |slope| < 0.2 % per °C.
	if math.Abs(res.TempSlope) > 0.002 {
		t.Errorf("efficiency-temperature slope = %v", res.TempSlope)
	}
	if len(res.Hours) != 24 {
		t.Errorf("hourly series = %d", len(res.Hours))
	}
	var buf bytes.Buffer
	RenderFig9(&buf, res)
	if !strings.Contains(buf.String(), "efficiency") {
		t.Error("render missing summary")
	}
	// Defaults path.
	if _, err := Fig9(0, 0); err != nil {
		t.Error(err)
	}
}

func TestFig10Shape(t *testing.T) {
	results := Fig10(240)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]Fig10Result{}
	for _, r := range results {
		byName[r.App] = r
		if r.Samples < 1000 || len(r.PDF) == 0 {
			t.Errorf("%s: samples=%d pdf=%d", r.App, r.Samples, len(r.PDF))
		}
	}
	// Kripke and Quicksilver exhibit high means; LAMMPS and AMG lower.
	if !(byName["kripke"].Mean > byName["lammps"].Mean && byName["quicksilver"].Mean > byName["amg"].Mean) {
		t.Errorf("mean ordering broken: %+v", byName)
	}
	// AMG and LAMMPS are multi-modal, Kripke/Quicksilver unimodal.
	if len(byName["amg"].Modes) < 2 {
		t.Errorf("amg modes = %v", byName["amg"].Modes)
	}
	if len(byName["lammps"].Modes) < 2 {
		t.Errorf("lammps modes = %v", byName["lammps"].Modes)
	}
	if len(byName["kripke"].Modes) > 2 {
		t.Errorf("kripke modes = %v", byName["kripke"].Modes)
	}
	var buf bytes.Buffer
	RenderFig10(&buf, results)
	if !strings.Contains(buf.String(), "PDF") {
		t.Error("render missing PDFs")
	}
}

func TestBurstAblation(t *testing.T) {
	a := RunBurstAblation(100, 30)
	if a.BurstMessages >= a.ContinuousMessages {
		t.Error("burst should send fewer messages")
	}
	if a.BurstBytes >= a.ContinuousBytes {
		t.Error("burst should send fewer bytes")
	}
	var buf bytes.Buffer
	RenderBurstAblation(&buf, a)
	if !strings.Contains(buf.String(), "burst") {
		t.Error("render")
	}
}

func TestPartitionerAblation(t *testing.T) {
	a, err := RunPartitionerAblation(4, 12, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Keyed on the subtree prefix: exactly one node per subtree query.
	if a.Rows[0].Depth != 2 || a.Rows[0].NodesPerQuery != 1 {
		t.Errorf("depth %d touches %v nodes per subtree", a.Rows[0].Depth, a.Rows[0].NodesPerQuery)
	}
	// Keyed on the full SID: spreads subtree queries over most nodes.
	if a.Rows[1].Depth != 0 || a.Rows[1].NodesPerQuery < 2 {
		t.Errorf("depth %d touches only %v nodes", a.Rows[1].Depth, a.Rows[1].NodesPerQuery)
	}
	var buf bytes.Buffer
	RenderPartitionerAblation(&buf, a)
	if !strings.Contains(buf.String(), "ring(depth=2)") {
		t.Error("render")
	}
}

func TestFleetOwnership(t *testing.T) {
	rows, err := RunFleetOwnership()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 2 fleets x 2 depths x 3 member counts", len(rows))
	}
	for _, r := range rows {
		// One key per sensor at depth 0, one per 16-sensor node at depth 4.
		wantKeys := r.Sensors
		if r.Depth == 4 {
			wantKeys = r.Sensors / 16
		}
		if r.Keys != wantKeys {
			t.Errorf("%+v: %d distinct keys, want %d", r, r.Keys, wantKeys)
		}
		if r.MaxOverMean < 1 || r.MaxOverMean > float64(r.Members) {
			t.Errorf("%+v: max/mean outside [1, members]", r)
		}
	}
	var buf bytes.Buffer
	RenderFleetOwnership(&buf, rows)
	if !strings.Contains(buf.String(), "Distinct keys") {
		t.Error("render")
	}
}

func TestGroupingAblation(t *testing.T) {
	a := RunGroupingAblation(1000, 50, 10)
	if a.GroupedReads >= a.PerSensorReads {
		t.Error("grouping should reduce reads")
	}
	if a.GroupedStamps >= a.PerSensorStamps {
		t.Error("grouping should reduce timestamps")
	}
	var buf bytes.Buffer
	RenderGroupingAblation(&buf, a)
	if !strings.Contains(buf.String(), "grouped") {
		t.Error("render")
	}
	if z := RunGroupingAblation(10, 0, 1); z.GroupSize != 1 {
		t.Error("zero group size not defaulted")
	}
}

func archByName(t *testing.T, name string) arch.Model {
	t.Helper()
	for _, a := range arch.All {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("unknown arch %q", name)
	return arch.Model{}
}
