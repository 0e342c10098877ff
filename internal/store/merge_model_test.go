package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dcdb/internal/core"
)

// Property test for the merge-read path: randomized operation
// sequences — overlapping and monotonic run layouts, duplicate
// timestamps across runs (newest-run-wins), DeleteBefore prefix drops,
// flushes, compactions, and (for durable nodes) crash/reopen cycles —
// are replayed against a naive reference model that sorts everything
// and applies last-write-wins per timestamp. Query over random windows
// must agree exactly.

// refModel is the obviously-correct reference: a map applied in
// operation order.
type refModel map[int64]float64

func (m refModel) insert(ts int64, v float64) { m[ts] = v }
func (m refModel) deleteBefore(cutoff int64) {
	for ts := range m {
		if ts < cutoff {
			delete(m, ts)
		}
	}
}
func (m refModel) query(from, to int64) []core.Reading {
	var out []core.Reading
	for ts, v := range m {
		if ts >= from && ts <= to {
			out = append(out, core.Reading{Timestamp: ts, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

// mergeModelOps drives one node through a random op sequence, checking
// Query windows against the model after every step. reopen, when
// non-nil, replaces the node with a freshly recovered one at random
// points (durable engines only).
func mergeModelOps(t *testing.T, rng *rand.Rand, n *Node, id core.SensorID, reopen func(*Node) *Node) {
	t.Helper()
	model := refModel{}
	const tsSpace = 240 // small space forces duplicate timestamps across runs
	monotonic := rng.Intn(2) == 0
	nextTS := int64(0)
	check := func(step int) {
		t.Helper()
		// The full range plus a few random windows.
		windows := [][2]int64{{-1 << 62, 1 << 62}}
		for i := 0; i < 3; i++ {
			a, b := rng.Int63n(tsSpace), rng.Int63n(tsSpace)
			if a > b {
				a, b = b, a
			}
			windows = append(windows, [2]int64{a, b})
		}
		for _, w := range windows {
			got, err := n.Query(id, w[0], w[1])
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want := model.query(w[0], w[1])
			if len(got) != len(want) {
				t.Fatalf("step %d window [%d,%d]: engine %d readings, model %d\nengine: %v\nmodel:  %v",
					step, w[0], w[1], len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d window [%d,%d] position %d: engine %v, model %v",
						step, w[0], w[1], i, got[i], want[i])
				}
			}
		}
	}
	steps := 60 + rng.Intn(60)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert a batch
			batch := make([]core.Reading, 1+rng.Intn(12))
			for i := range batch {
				var ts int64
				if monotonic {
					ts = nextTS
					nextTS++
				} else {
					ts = rng.Int63n(tsSpace)
				}
				v := float64(rng.Intn(1000))
				batch[i] = core.Reading{Timestamp: ts, Value: v}
				model.insert(ts, v)
			}
			if err := n.InsertBatch(id, batch, 0); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		case op < 7: // flush creates a new run (and run file)
			if err := n.Flush(); err != nil {
				t.Fatalf("step %d flush: %v", step, err)
			}
		case op == 7:
			cutoff := rng.Int63n(tsSpace)
			if err := n.DeleteBefore(id, cutoff); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			model.deleteBefore(cutoff)
		case op == 8:
			n.Compact()
		default:
			if reopen != nil {
				n = reopen(n)
			}
		}
		check(step)
	}
}

func TestMergeReadMatchesReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("memory/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := NewNode(8 * numShards) // 8 entries per shard: frequent organic flushes too
			mergeModelOps(t, rng, n, sid(11, uint64(seed)), nil)
		})
	}
	for seed := int64(100); seed < 106; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("durable/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			id := sid(13, uint64(seed))
			var cur *Node
			open := func() *Node {
				n := NewNode(8 * numShards)
				if err := n.OpenOptions(dir, noCompact); err != nil {
					t.Fatal(err)
				}
				cur = n
				return n
			}
			t.Cleanup(func() {
				if cur != nil {
					cur.Close()
				}
			})
			n := open()
			reopen := func(old *Node) *Node {
				// Alternate clean shutdowns and hard crashes; with
				// SyncInterval 0 both must preserve every write.
				if rng.Intn(2) == 0 {
					if err := old.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					old.crash()
				}
				return open()
			}
			mergeModelOps(t, rng, n, id, reopen)
		})
	}
}

// TestMergeModelBackgroundCompaction runs the same property with the
// background compactor racing the checks: merges must never change
// query results.
func TestMergeModelBackgroundCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	dir := t.TempDir()
	n := NewNode(8 * numShards)
	if err := n.OpenOptions(dir, DiskOptions{SyncInterval: 0, MaxRuns: 2}); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	mergeModelOps(t, rng, n, sid(17, 17), nil)
}
