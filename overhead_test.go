// Instrumentation-overhead budget: the observability layer must not
// tax the hot paths it observes. The paper's contract is sub-1% total
// monitoring footprint (§6); here we hold the self-instrumentation of
// the store to a CI-asserted budget by timing the same insert and
// query workloads with metrics enabled (the default) and disabled
// (store.SetInstrumentation(false)) in interleaved repetitions. The
// estimator is the median of per-repetition paired deltas (on minus
// off, measured back to back with alternating order): machine drift —
// thermal, noisy neighbours, GC phase — moves both halves of a pair
// together and cancels in the delta, where comparing two independent
// medians would see the full drift. A small absolute slack keeps
// sub-100ns/op workloads from tripping on timer granularity. A busy
// machine can still push one run's median over the line, so a workload
// over budget is measured again, up to twice, and fails only when every
// attempt is over. Under the race detector the workloads still run, so
// the metric code is race-checked, but the time verdict is only logged:
// the detector's own cost swamps the delta. Beside the time gate stands
// a count gate that no busy machine can trip: the same workloads
// allocate exactly as often with instrumentation on as with it off.
package main_test

import (
	"sort"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

// timeOps runs work and returns ns per operation.
func timeOps(ops int, work func()) float64 {
	start := time.Now()
	work()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

const (
	reps     = 15 // interleaved on/off pairs per attempt
	attempts = 3  // a workload fails only when every attempt is over budget
)

// assertBudget measures a workload in reps interleaved pairs and fails
// when, in every one of up to attempts runs, the median paired delta
// (instrumented minus uninstrumented, same repetition) exceeds 5% of
// the uninstrumented median plus an 8ns/op absolute floor.
func assertBudget(t *testing.T, name string, measure func() float64) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		deltas := make([]float64, reps)
		off := make([]float64, reps)
		for rep := 0; rep < reps; rep++ {
			// Alternate which mode goes first so cache warm-up and drift
			// hit both sides equally.
			first := rep%2 == 0
			store.SetInstrumentation(first)
			a := measure()
			store.SetInstrumentation(!first)
			b := measure()
			if !first {
				a, b = b, a
			}
			deltas[rep], off[rep] = a-b, b
		}
		delta, base := median(deltas), median(off)
		budget := base*0.05 + 8
		t.Logf("%s attempt %d/%d: uninstrumented %.1f ns/op, instrumentation delta %+.1f ns/op (%+.2f%%), budget %.1f ns/op",
			name, attempt, attempts, base, delta, 100*delta/base, budget)
		if delta <= budget {
			return
		}
		if raceEnabled {
			// The workloads ran, so the metric code was race-checked; the
			// time verdict is the job of a run without the detector.
			t.Logf("%s: over budget under the race detector, which times instrumented code; not asserted", name)
			return
		}
		if attempt == attempts {
			t.Errorf("%s: instrumentation costs %.1f ns/op against a %.1f ns/op budget in all %d attempts — the hot path regressed",
				name, delta, budget, attempts)
			return
		}
	}
}

// The workloads: inserts into a fresh node, and 1 001-reading range
// reads of a prepared one.
var (
	insertID = core.SensorID{Hi: 42, Lo: 7}
	queryID  = core.SensorID{Hi: 7, Lo: 1}
)

func newQueryNode() *store.Node {
	n := store.NewNode(1 << 12)
	for i := int64(0); i < 20_000; i++ {
		n.InsertBatch(queryID, []core.Reading{{Timestamp: i, Value: float64(i)}}, 0)
	}
	return n
}

func query(t *testing.T, n *store.Node) {
	rs, err := n.Query(queryID, 5000, 6000)
	if err != nil || len(rs) != 1001 {
		t.Fatalf("query: %d readings, %v", len(rs), err)
	}
}

// TestInstrumentationAllocParity is the count gate: instrumentation adds
// no allocation to an insert or a query. Counts do not depend on how
// busy the machine is, so it runs in -short and coverage mode too.
func TestInstrumentationAllocParity(t *testing.T) {
	defer store.SetInstrumentation(true)
	queryNode := newQueryNode()
	allocs := func(on bool) (insert, read float64) {
		store.SetInstrumentation(on)
		n := store.NewNode(0)
		ts := int64(0)
		insert = testing.AllocsPerRun(10_000, func() {
			ts++
			if err := n.InsertBatch(insertID, []core.Reading{{Timestamp: ts, Value: 1}}, 0); err != nil {
				t.Fatal(err)
			}
		})
		read = testing.AllocsPerRun(200, func() { query(t, queryNode) })
		return insert, read
	}
	offInsert, offQuery := allocs(false)
	onInsert, onQuery := allocs(true)
	t.Logf("allocations per insert %v off, %v on; per query %v off, %v on", offInsert, onInsert, offQuery, onQuery)
	if onInsert != offInsert || onQuery != offQuery {
		t.Errorf("instrumentation changes allocations: per insert %v off, %v on; per query %v off, %v on",
			offInsert, onInsert, offQuery, onQuery)
	}
}

func TestInstrumentationOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("interleaved timing reps are not short-mode material")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage counters distort the on/off timing comparison")
	}
	defer store.SetInstrumentation(true)

	const (
		insertOps = 100_000
		queryOps  = 2_000
	)

	// Insert: a fresh node per measurement so both modes pay identical
	// memtable growth and flush schedules.
	insertRep := func() float64 {
		n := store.NewNode(0)
		return timeOps(insertOps, func() {
			for i := 0; i < insertOps; i++ {
				if err := n.InsertBatch(insertID, []core.Reading{{Timestamp: int64(i), Value: 1}}, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	// Query: both modes read the same prepared node — range reads do
	// not mutate it, and sharing one instance removes allocation-layout
	// bias between two otherwise-identical nodes.
	queryNode := newQueryNode()
	queryRep := func(n *store.Node) float64 {
		return timeOps(queryOps, func() {
			for i := 0; i < queryOps; i++ {
				query(t, n)
			}
		})
	}

	assertBudget(t, "StoreInsert", insertRep)
	assertBudget(t, "StoreQuery", func() float64 { return queryRep(queryNode) })
}
