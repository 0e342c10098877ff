package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many goroutines —
// registration (idempotent re-registration included), counter/gauge
// updates, histogram observes and concurrent Gathers — and then checks
// the totals. Run under -race this is the registry's thread-safety
// contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker re-registers the same names: GetOrCreate
			// semantics must hand back the same underlying metric.
			c := r.Counter("c_total", "shared counter")
			g := r.Gauge("g", "shared gauge")
			h := r.Histogram("h", "shared histogram")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 1024))
				if i%1000 == 0 {
					_ = r.Gather()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g", "").Load(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	snap := r.Histogram("h", "").Snapshot()
	if got := snap.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestCounterFuncAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 41.0
	r.CounterFunc("cf_total", "", func() float64 { return v })
	r.GaugeFunc("gf", "", func() float64 { return -v })
	v = 42
	samples := r.Gather()
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if byName["cf_total"].Value != 42 {
		t.Fatalf("counter func = %v, want 42 (evaluated at gather)", byName["cf_total"].Value)
	}
	if byName["gf"].Value != -42 {
		t.Fatalf("gauge func = %v", byName["gf"].Value)
	}
}

// TestHistogramBucketIndex pins the bucket layout: v lands in the
// smallest bucket whose upper bound 2^i admits it. The fixed layout is
// what makes cross-node merges exact, so it must never drift.
func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {1 << 47, 47}, {1<<47 + 1, numBuckets},
		{math.MaxInt64, numBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestHistogramQuantileProperty checks the quantile estimate's bound
// property on random data: the reported quantile is an upper bound for
// the true order statistic, and no more than one power of two above
// it (the bucket's resolution guarantee).
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		var h Histogram
		n := 100 + rng.Intn(2000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << uint(5+rng.Intn(30)))
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		snap := h.Snapshot()
		if snap.Count() != int64(n) {
			t.Fatalf("count = %d, want %d", snap.Count(), n)
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			rank := int(math.Ceil(q*float64(n))) - 1
			if rank < 0 {
				rank = 0
			}
			truth := vals[rank]
			got := snap.Quantile(q)
			if got < float64(truth) {
				t.Fatalf("q=%v: estimate %v below true order statistic %d", q, got, truth)
			}
			// Upper bound of the containing bucket: at most 2x the
			// true value (for truth >= 1).
			if truth >= 1 && got > 2*float64(truth) {
				t.Fatalf("q=%v: estimate %v more than 2x true value %d", q, got, truth)
			}
		}
	}
}

// TestHistogramMergeExact: merging two snapshots is identical to
// observing both value streams into one histogram.
func TestHistogramMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var a, b, both Histogram
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	sa, sb, sBoth := a.Snapshot(), b.Snapshot(), both.Snapshot()
	sa.Merge(sb)
	if sa.Counts != sBoth.Counts {
		t.Fatal("merged bucket counts differ from single-histogram counts")
	}
	if sa.Sum != sBoth.Sum {
		t.Fatalf("merged sum %d != %d", sa.Sum, sBoth.Sum)
	}
	if q1, q2 := sa.Quantile(0.9), sBoth.Quantile(0.9); q1 != q2 {
		t.Fatalf("merged q90 %v != %v", q1, q2)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if got := snap.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestLatencyHistogramObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("lat_seconds", "latency", 1)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	snap := h.Snapshot()
	if snap.Count() != 1 {
		t.Fatalf("count = %d", snap.Count())
	}
	if snap.Scale != 1e-9 {
		t.Fatalf("scale = %v, want 1e-9", snap.Scale)
	}
	if q := snap.Quantile(1) * snap.Scale; q < 1e-3 || q > 1 {
		t.Fatalf("observed latency quantile %vs implausible for a 1ms sleep", q)
	}
}

func TestMergeSamples(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("c_total", "").Add(3)
	r2.Counter("c_total", "").Add(4)
	r1.Gauge("g", "").Add(10)
	r2.Gauge("g", "").Add(5)
	r1.Histogram("h", "").Observe(2)
	r2.Histogram("h", "").Observe(100)
	r2.Counter("only2_total", "").Add(7)
	merged := MergeSamples(r1.Gather(), r2.Gather())
	byName := map[string]Sample{}
	for _, s := range merged {
		byName[s.Name] = s
	}
	if byName["c_total"].Value != 7 {
		t.Fatalf("merged counter = %v", byName["c_total"].Value)
	}
	if byName["g"].Value != 15 {
		t.Fatalf("merged gauge = %v", byName["g"].Value)
	}
	if byName["h"].Hist.Count() != 2 {
		t.Fatalf("merged histogram count = %v", byName["h"].Hist.Count())
	}
	if byName["only2_total"].Value != 7 {
		t.Fatalf("lone counter = %v", byName["only2_total"].Value)
	}
	if !sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name }) {
		t.Fatal("merged samples not sorted")
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a").Add(12)
	r.Gauge("b{shard=\"3\"}", "").Add(-4)
	h := r.LatencyHistogram("lat_seconds", "", 64)
	for i := int64(0); i < 1000; i++ {
		h.Observe(i * 1000)
	}
	in := r.Gather()
	out, err := DecodeSamples(EncodeSamples(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i].Name != out[i].Name || in[i].Kind != out[i].Kind {
			t.Fatalf("sample %d: %q/%v != %q/%v", i, in[i].Name, in[i].Kind, out[i].Name, out[i].Kind)
		}
		if in[i].Value != out[i].Value {
			t.Fatalf("sample %d value %v != %v", i, in[i].Value, out[i].Value)
		}
		if (in[i].Hist == nil) != (out[i].Hist == nil) {
			t.Fatalf("sample %d histogram presence mismatch", i)
		}
		if in[i].Hist != nil {
			if *in[i].Hist != *out[i].Hist {
				t.Fatalf("sample %d histogram mismatch", i)
			}
		}
	}
	// Help is intentionally not carried on the wire.
	if out[0].Help != "" {
		t.Fatalf("help leaked onto the wire: %q", out[0].Help)
	}
}

func TestSnapshotDecodeRejectsCorrupt(t *testing.T) {
	good := EncodeSamples([]Sample{{Name: "x", Kind: KindCounter, Value: 1}})
	cases := map[string][]byte{
		"empty":        {},
		"bad version":  append([]byte{9}, good[1:]...),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0xff),
		"absurd count": {1, 0xff, 0xff, 0xff, 0xff},
	}
	for name, b := range cases {
		if _, err := DecodeSamples(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestRuntimeRegistry(t *testing.T) {
	samples := Runtime().Gather()
	found := map[string]bool{}
	for _, s := range samples {
		found[s.Name] = true
		if s.Name == "dcdb_process_goroutines" && s.Value < 1 {
			t.Fatalf("goroutines = %v", s.Value)
		}
	}
	for _, want := range []string{"dcdb_process_goroutines", "dcdb_process_heap_alloc_bytes", "dcdb_process_gc_total"} {
		if !found[want] {
			t.Errorf("runtime registry missing %s", want)
		}
	}
	if Runtime() != Runtime() {
		t.Fatal("Runtime() not a singleton")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewRegistry().Histogram("x", "x")
	h.Observe(1 << 55) // beyond the largest finite bucket
	snap := h.Snapshot()
	if snap.Counts[numBuckets] != 1 {
		t.Fatalf("overflow bucket count = %d, want 1", snap.Counts[numBuckets])
	}
	if q := snap.Quantile(0.99); !math.IsInf(q, 1) {
		t.Fatalf("overflow quantile = %g, want +Inf", q)
	}
	if bucketUpper(numBuckets) != math.Inf(1) {
		t.Fatal("bucketUpper past the last bucket is not +Inf")
	}
}
