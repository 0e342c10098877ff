package fold

import (
	"math"
	"math/rand"
	"testing"

	"dcdb/internal/core"
)

// genSeries builds a sorted series with duplicate timestamps and
// non-finite values sprinkled in, the adversarial shape for streaming
// folds.
func genSeries(rng *rand.Rand, n int) []core.Reading {
	rs := make([]core.Reading, 0, n)
	ts := int64(1000)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(6) != 0 {
			ts += int64(rng.Intn(5000)) + 1
		} // else: duplicate timestamp
		v := rng.NormFloat64() * 100
		switch rng.Intn(12) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1 - 2*rng.Intn(2))
		}
		rs = append(rs, core.Reading{Timestamp: ts, Value: v})
	}
	return rs
}

// chunks splits rs at random boundaries (empty chunks included).
func chunks(rng *rand.Rand, rs []core.Reading) [][]core.Reading {
	var out [][]core.Reading
	for i := 0; i < len(rs); {
		j := i + rng.Intn(len(rs)-i+1)
		out = append(out, rs[i:j])
		i = j
	}
	out = append(out, nil)
	return out
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func specsFor(rs []core.Reading) []Spec {
	from, to := int64(0), int64(1)
	if len(rs) > 0 {
		from, to = rs[0].Timestamp, rs[len(rs)-1].Timestamp
	}
	return []Spec{
		{Op: OpSummary},
		{Op: OpIntegral},
		{Op: OpDownsample, From: from, To: to, Buckets: 7},
		{Op: OpDownsample, From: from, To: to, Buckets: 1000},
	}
}

func foldAll(t *testing.T, spec Spec, cs [][]core.Reading) State {
	t.Helper()
	st, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		st.Add(c)
	}
	return st
}

// statesIdentical compares two states bit-for-bit through their
// encodings (which carry every field, fingerprints included).
func statesIdentical(t *testing.T, a, b State) bool {
	t.Helper()
	return string(Append(nil, a)) == string(Append(nil, b))
}

// TestChunkingInvariance is the core single-pass property: folding a
// series chunk by chunk — whatever the chunk boundaries, including
// boundaries splitting duplicate timestamps — is bit-identical to
// folding it in one call.
func TestChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rs := genSeries(rng, rng.Intn(300))
		for _, spec := range specsFor(rs) {
			whole := foldAll(t, spec, [][]core.Reading{rs})
			chunked := foldAll(t, spec, chunks(rng, rs))
			if !statesIdentical(t, whole, chunked) {
				t.Fatalf("trial %d %s: chunked fold differs from single-pass", trial, spec.Op)
			}
		}
	}
}

// TestDerivativeChunkingInvariance: the derivative emits the same
// points under any chunking.
func TestDerivativeChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		rs := genSeries(rng, rng.Intn(300))
		var whole Derivative
		want := whole.Add(nil, rs)
		var chunked Derivative
		var got []core.Reading
		for _, c := range chunks(rng, rs) {
			got = chunked.Add(got, c)
		}
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d derivative points", trial, len(want), len(got))
		}
		for i := range want {
			if want[i].Timestamp != got[i].Timestamp || !bitsEqual(want[i].Value, got[i].Value) {
				t.Fatalf("trial %d point %d: %v vs %v", trial, i, want[i], got[i])
			}
		}
		if whole.Count() != chunked.Count() || whole.Skipped() != chunked.Skipped() {
			t.Fatalf("trial %d: counters differ", trial)
		}
	}
}

// TestMergeAdjacent: a fold over [a, m] absorbing a fold over (m, b]
// equals the fold of the whole series — exactly for counts, extrema
// and boundaries; within float tolerance for running sums (merge
// reassociates the additions).
func TestMergeAdjacent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rs := genSeries(rng, rng.Intn(300)+2)
		cut := rng.Intn(len(rs))
		// Respect adjacency: both halves fold disjoint sorted ranges.
		for cut > 0 && cut < len(rs) && rs[cut].Timestamp == rs[cut-1].Timestamp {
			cut++
		}
		for _, spec := range specsFor(rs) {
			whole := foldAll(t, spec, [][]core.Reading{rs})
			left := foldAll(t, spec, [][]core.Reading{rs[:cut]})
			right := foldAll(t, spec, [][]core.Reading{rs[cut:]})
			if err := MergeAdjacent(left, right); err != nil {
				t.Fatalf("trial %d %s: merge: %v", trial, spec.Op, err)
			}
			if left.Count() != whole.Count() || left.Skipped() != whole.Skipped() {
				t.Fatalf("trial %d %s: merged counters %d/%d, want %d/%d",
					trial, spec.Op, left.Count(), left.Skipped(), whole.Count(), whole.Skipped())
			}
			switch w := whole.(type) {
			case *Summary:
				m := left.(*Summary)
				if !bitsEqual(m.Min, w.Min) || !bitsEqual(m.Max, w.Max) ||
					m.First != w.First || m.Last != w.Last {
					t.Fatalf("trial %d summary: merged %+v, want %+v", trial, m, w)
				}
				if !closeEnough(m.Sum, w.Sum) {
					t.Fatalf("trial %d summary: merged sum %g, want %g", trial, m.Sum, w.Sum)
				}
			case *Integral:
				m := left.(*Integral)
				if m.First != w.First || m.Last != w.Last {
					t.Fatalf("trial %d integral: merged boundaries differ", trial)
				}
				if !closeEnough(m.Sum, w.Sum) {
					t.Fatalf("trial %d integral: merged %g, want %g", trial, m.Sum, w.Sum)
				}
			case *Downsample:
				m := left.(*Downsample)
				mr, wr := m.Result(), w.Result()
				if len(mr) != len(wr) {
					t.Fatalf("trial %d downsample: %d vs %d points", trial, len(mr), len(wr))
				}
				for i := range wr {
					if mr[i].Timestamp != wr[i].Timestamp || !closeEnough(mr[i].Value, wr[i].Value) {
						t.Fatalf("trial %d downsample point %d: %v vs %v", trial, i, mr[i], wr[i])
					}
				}
			}
		}
	}
}

func closeEnough(a, b float64) bool {
	if bitsEqual(a, b) {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestMergeGridMismatch: downsample states over different grids must
// refuse to merge (their buckets do not line up).
func TestMergeGridMismatch(t *testing.T) {
	a := NewDownsample(0, 100, 10)
	b := NewDownsample(0, 200, 10)
	if err := MergeAdjacent(a, b); err == nil {
		t.Fatal("merging downsample states with different grids succeeded")
	}
	if err := MergeAdjacent(NewSummary(), NewIntegral()); err == nil {
		t.Fatal("merging a summary with an integral succeeded")
	}
}

// TestCodecRoundtrip: Append/Decode preserve every state bit-for-bit,
// in both identity and bucketed downsample modes.
func TestCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		rs := genSeries(rng, rng.Intn(200)+1)
		for _, spec := range specsFor(rs) {
			st := foldAll(t, spec, chunks(rng, rs))
			enc := Append(nil, st)
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("trial %d %s: decode: %v", trial, spec.Op, err)
			}
			if !statesIdentical(t, st, dec) {
				t.Fatalf("trial %d %s: roundtrip changed the state", trial, spec.Op)
			}
			// The decoded state must keep folding like the original.
			more := genSeries(rng, 10)
			for i := range more {
				more[i].Timestamp += rs[len(rs)-1].Timestamp + 1000
			}
			st.Add(more)
			dec.Add(more)
			if !statesIdentical(t, st, dec) {
				t.Fatalf("trial %d %s: decoded state diverged on further input", trial, spec.Op)
			}
		}
	}
}

// TestSpecCodecRoundtrip covers the request side of the wire format.
func TestSpecCodecRoundtrip(t *testing.T) {
	specs := []Spec{
		{Op: OpSummary, From: -5, To: 1 << 60},
		{Op: OpIntegral, From: 0, To: 0},
		{Op: OpDownsample, From: 100, To: 900, Buckets: 33},
	}
	for _, s := range specs {
		got, rest, err := DecodeSpec(AppendSpec(nil, s))
		if err != nil || len(rest) != 0 || got != s {
			t.Fatalf("spec roundtrip: got %+v rest %d err %v, want %+v", got, len(rest), err, s)
		}
	}
	if _, _, err := DecodeSpec(AppendSpec(nil, Spec{Op: OpDownsample, Buckets: 0})); err == nil {
		t.Fatal("decoding a zero-bucket downsample spec succeeded")
	}
	if _, _, err := DecodeSpec([]byte{1, 2, 3}); err == nil {
		t.Fatal("decoding a truncated spec succeeded")
	}
}

// TestDecodeRejectsMalformed: truncation, trailing bytes and hostile
// counts must all fail instead of allocating or panicking.
func TestDecodeRejectsMalformed(t *testing.T) {
	st := NewSummary()
	st.Add([]core.Reading{{Timestamp: 1, Value: 2}})
	enc := Append(nil, st)
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("decoding a truncated state succeeded")
	}
	if _, err := Decode(append(enc, 0)); err == nil {
		t.Fatal("decoding a state with trailing bytes succeeded")
	}
	if _, err := Decode([]byte{99}); err == nil {
		t.Fatal("decoding an unknown op succeeded")
	}

	d := NewDownsample(0, 1000, 4)
	d.Add([]core.Reading{{Timestamp: 1, Value: 1}, {Timestamp: 2, Value: 2}})
	encD := Append(nil, d)
	// Corrupt the identity-buffer count to something the payload
	// cannot hold. Layout: op(1) from(8) to(8) nmax(4) n(8) skip(8)
	// fp(8) mode(1) count(4) — the count starts at offset 46.
	bad := append([]byte(nil), encD...)
	if bad[45] != 0 {
		t.Fatalf("expected identity mode byte at offset 45, got %d", bad[45])
	}
	bad[46], bad[47], bad[48], bad[49] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Decode(bad); err == nil {
		t.Fatal("decoding a hostile identity-buffer count succeeded")
	}
}

// TestDownsampleTimestampClamp: regression for bucket midpoints
// stamped past the end of the grid.
func TestDownsampleTimestampClamp(t *testing.T) {
	// 11 readings over [0, 1000], 3 buckets: width 334, last bucket
	// starts at 668 and its midpoint 835... fine; shrink the range so
	// the midpoint of the last bucket falls past To.
	d := NewDownsample(0, 10, 3)
	var rs []core.Reading
	for ts := int64(0); ts <= 10; ts++ {
		rs = append(rs, core.Reading{Timestamp: ts, Value: float64(ts)})
	}
	d.Add(rs)
	for _, r := range d.Result() {
		if r.Timestamp < 0 || r.Timestamp > 10 {
			t.Fatalf("downsample emitted timestamp %d outside [0, 10]", r.Timestamp)
		}
	}
	// As many buckets as readings: they pass through untouched.
	id := NewDownsample(0, 10, len(rs))
	id.Add(rs)
	if out := id.Result(); len(out) != len(rs) || out[3] != rs[3] {
		t.Fatalf("identity downsample = %v", out)
	}
}

// TestDownsampleZeroWidth: a single-timestamp grid averages every
// reading into one point (regression: the materialized op used to
// return just the first reading).
func TestDownsampleZeroWidth(t *testing.T) {
	d := NewDownsample(500, 500, 4)
	d.Add([]core.Reading{
		{Timestamp: 500, Value: 1},
		{Timestamp: 500, Value: 2},
		{Timestamp: 500, Value: 3},
		{Timestamp: 500, Value: 4},
		{Timestamp: 500, Value: 6},
	})
	out := d.Result()
	if len(out) != 1 || out[0].Timestamp != 500 || out[0].Value != 3.2 {
		t.Fatalf("zero-width downsample = %v, want one point (500, 3.2)", out)
	}
}

// TestNaNSkipping: non-finite readings must not poison any fold, and
// must be counted.
func TestNaNSkipping(t *testing.T) {
	rs := []core.Reading{
		{Timestamp: 1, Value: 1},
		{Timestamp: 2, Value: math.NaN()},
		{Timestamp: 3, Value: 3},
		{Timestamp: 4, Value: math.Inf(1)},
		{Timestamp: 5, Value: 5},
	}
	s := NewSummary()
	s.Add(rs)
	if s.N != 3 || s.Skip != 2 || s.Min != 1 || s.Max != 5 || s.Mean() != 3 {
		t.Fatalf("summary over NaN series: %+v", s)
	}
	if s.First.Timestamp != 1 || s.Last.Timestamp != 5 {
		t.Fatalf("summary boundaries: %+v", s)
	}
	allNaN := NewSummary()
	allNaN.Add(rs[1:2])
	if allNaN.N != 0 || allNaN.Skip != 1 {
		t.Fatalf("summary over one NaN: N %d, Skip %d", allNaN.N, allNaN.Skip)
	}

	g := NewIntegral()
	g.Add(rs)
	if math.IsNaN(g.Value()) || math.IsInf(g.Value(), 0) {
		t.Fatalf("integral over NaN series = %g", g.Value())
	}
	// Trapezoids bridge the gaps between finite neighbours: 2ns over
	// (1+3)/2 plus 2ns over (3+5)/2 = 12e-9 value-seconds.
	if !closeEnough(g.Value(), 12e-9) {
		t.Fatalf("integral = %g, want %g", g.Value(), 12e-9)
	}
	if g.Skipped() != 2 {
		t.Fatalf("integral skipped %d, want 2", g.Skipped())
	}

	var dv Derivative
	out := dv.Add(nil, rs)
	for _, r := range out {
		if !finite(r.Value) {
			t.Fatalf("derivative emitted non-finite point %v", r)
		}
	}
	if len(out) != 2 || dv.Skipped() != 2 {
		t.Fatalf("derivative over NaN series: %v (skipped %d)", out, dv.Skipped())
	}
	// The finite readings rise 1 per ns: 1e9 per second, stamped at
	// the later reading of each pair.
	if out[0].Timestamp != 3 || out[1].Timestamp != 5 || !closeEnough(out[0].Value, 1e9) || !closeEnough(out[1].Value, 1e9) {
		t.Fatalf("derivative over NaN series = %v, want 1e9 at 3 and 5", out)
	}

	d := NewDownsample(1, 5, 2)
	d.Add(rs)
	for _, r := range d.Result() {
		if !finite(r.Value) {
			t.Fatalf("downsample emitted non-finite point %v", r)
		}
	}
	if d.Skipped() != 2 {
		t.Fatalf("downsample skipped %d, want 2", d.Skipped())
	}
}

// TestIntegralNonPositiveDT: duplicate or reordered timestamps
// contribute no area (regression: a duplicate used to add zero-width
// area and a reordered pair negative area).
func TestIntegralNonPositiveDT(t *testing.T) {
	g := NewIntegral()
	g.Add([]core.Reading{
		{Timestamp: 1e9, Value: 10},
		{Timestamp: 1e9, Value: 1e308}, // duplicate ts, huge value: must add nothing
		{Timestamp: 2e9, Value: 10},
	})
	// The duplicate pair itself adds no area; the duplicate still
	// advances Last, so the next trapezoid is (1e308+10)/2 over 1s.
	if v := g.Value(); v != (1e308+10)/2 {
		t.Fatalf("integral = %g", v)
	}

	// All readings at one timestamp: zero area, not NaN.
	g2 := NewIntegral()
	g2.Add([]core.Reading{{Timestamp: 5, Value: 1}, {Timestamp: 5, Value: 2}})
	if g2.Value() != 0 {
		t.Fatalf("zero-width integral = %g, want 0", g2.Value())
	}

	// A reordered reading (dt < 0) cannot subtract area: 100 W over
	// 2 s stays 200 J.
	g3 := NewIntegral()
	g3.Add([]core.Reading{{Timestamp: 0, Value: 100}, {Timestamp: 2e9, Value: 100}, {Timestamp: 1e9, Value: 5000}})
	if g3.Value() != 200 {
		t.Fatalf("integral with a reordered reading = %g, want 200", g3.Value())
	}
	// No input, or a single reading, has no area.
	g4 := NewIntegral()
	if g4.Value() != 0 {
		t.Fatalf("empty integral = %g, want 0", g4.Value())
	}
	g4.Add([]core.Reading{{Timestamp: 1, Value: 7}})
	if g4.Value() != 0 {
		t.Fatalf("one-reading integral = %g, want 0", g4.Value())
	}

	// The derivative applies the same guard: the duplicate pair is
	// skipped, not divided by zero, and one reading has no slope.
	var dv Derivative
	if out := dv.Add(nil, []core.Reading{{Timestamp: 0, Value: 1}}); len(out) != 0 {
		t.Fatalf("derivative of one reading = %v", out)
	}
	if out := dv.Add(nil, []core.Reading{{Timestamp: 0, Value: 2}, {Timestamp: 1e9, Value: 3}}); len(out) != 1 || out[0].Value != 1 {
		t.Fatalf("derivative across a duplicate timestamp = %v, want one point of 1/s", out)
	}
}

// TestFingerprintDetectsDivergence: replicas that folded different
// readings (or the same readings in different order) must disagree.
func TestFingerprintDetectsDivergence(t *testing.T) {
	a, b, c := NewSummary(), NewSummary(), NewSummary()
	rs := []core.Reading{{Timestamp: 1, Value: 1}, {Timestamp: 2, Value: 2}}
	a.Add(rs)
	b.Add(rs)
	c.Add([]core.Reading{rs[1], rs[0]})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical folds produced different fingerprints")
	}
	g1, g2 := NewIntegral(), NewIntegral()
	g1.Add(rs)
	g2.Add(rs)
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("identical integral folds produced different fingerprints")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("order-swapped fold produced the same fingerprint")
	}
	b.Add(rs[:1])
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("extra reading did not change the fingerprint")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Op: 0},
		{Op: 99},
		{Op: OpSummary, From: 10, To: 5},
		{Op: OpDownsample, From: 0, To: 10, Buckets: 0},
		{Op: OpDownsample, From: 0, To: 10, Buckets: maxBuckets + 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %+v validated", s)
		}
	}
	if err := (Spec{Op: OpDownsample, From: 3, To: 3, Buckets: 1}).Validate(); err != nil {
		t.Fatalf("degenerate single-timestamp downsample spec rejected: %v", err)
	}
}

func TestOpStringAndStateEdges(t *testing.T) {
	for op, want := range map[Op]string{
		OpSummary:    "summary",
		OpIntegral:   "integral",
		OpDownsample: "downsample",
		Op(99):       "op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if m := NewSummary().Mean(); !math.IsNaN(m) {
		t.Errorf("empty summary Mean = %g, want NaN", m)
	}
	rs := []core.Reading{{Timestamp: 1, Value: 2}, {Timestamp: 2, Value: 4}}
	g := NewIntegral()
	g.Add(rs)
	if g.Fingerprint() == 0 {
		t.Error("integral fingerprint is zero after input")
	}
	d := NewDownsample(0, 10, 4)
	d.Add(rs)
	if d.Fingerprint() == 0 {
		t.Error("downsample fingerprint is zero after input")
	}
}

func TestDecodeTruncated(t *testing.T) {
	g := NewIntegral()
	g.Add([]core.Reading{{Timestamp: 1, Value: 2}, {Timestamp: 5, Value: 3}})
	enc := Append(nil, g)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}
