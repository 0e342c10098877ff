package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

func ids(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:4441", i+1)
	}
	return out
}

// Placement must be a pure function of the member set: input order,
// duplicates and construction site must not matter — that is the whole
// "every coordinator converges without coordination" contract.
func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	members := ids(7)
	a := New(members, 64)
	shuffled := append([]string(nil), members...)
	rnd := rand.New(rand.NewSource(42))
	rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shuffled = append(shuffled, members[3], members[0]) // duplicates collapse
	b := New(shuffled, 64)
	if !a.Equal(b) {
		t.Fatal("rings over the same member set are not Equal")
	}
	for k := 0; k < 1000; k++ {
		h := rnd.Uint64()
		ra, rb := a.ReplicasFor(h, 3), b.ReplicasFor(h, 3)
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("hash %#x: placement differs: %v vs %v", h, ra, rb)
		}
	}
}

func TestRingReplicasDistinctAndCapped(t *testing.T) {
	r := New(ids(5), 32)
	rnd := rand.New(rand.NewSource(7))
	for k := 0; k < 500; k++ {
		h := rnd.Uint64()
		for _, rf := range []int{1, 2, 3, 5, 9} {
			got := r.ReplicasFor(h, rf)
			want := rf
			if want > 5 {
				want = 5
			}
			if len(got) != want {
				t.Fatalf("rf=%d returned %d replicas", rf, len(got))
			}
			seen := map[string]bool{}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("duplicate member %q in replica set %v", id, got)
				}
				seen[id] = true
			}
		}
	}
	if got := r.ReplicasFor(1, 0); got != nil {
		t.Fatalf("rf=0 returned %v", got)
	}
	empty := New(nil, 16)
	if got := empty.ReplicasFor(1, 3); got != nil {
		t.Fatalf("empty ring returned %v", got)
	}
	if empty.Windows(2) != nil {
		t.Fatal("empty ring has windows")
	}
}

// A lookup sits on every coordinated write: it may allocate its result
// and nothing else.
func TestRingReplicasForAllocatesOnlyItsResult(t *testing.T) {
	r := New(ids(5), DefaultVNodes)
	h := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		h += 0x9e3779b97f4a7c15
		r.ReplicasFor(h, 3)
	}); n > 1 {
		t.Fatalf("ReplicasFor allocates %v times per lookup, want at most 1", n)
	}
}

// Adding one member must move only a bounded fraction of the keyspace:
// every key whose replica set is unchanged keeps identical placement,
// and the fraction that moves at all is near 1/(n+1), not a reshuffle.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	before := New(ids(5), 64)
	after := New(append(ids(5), "10.0.0.99:4441"), 64)
	rnd := rand.New(rand.NewSource(11))
	const keys = 20000
	movedPrimary := 0
	for k := 0; k < keys; k++ {
		h := rnd.Uint64()
		a := before.ReplicasFor(h, 3)
		b := after.ReplicasFor(h, 3)
		if a[0] != b[0] {
			movedPrimary++
			if b[0] != "10.0.0.99:4441" {
				t.Fatalf("hash %#x: primary moved %s -> %s, not to the joiner", h, a[0], b[0])
			}
		}
	}
	frac := float64(movedPrimary) / keys
	// Ideal is 1/6 ≈ 0.167; allow generous vnode variance.
	if frac > 0.30 {
		t.Fatalf("join moved %.1f%% of primaries; consistent hashing should move ~17%%", 100*frac)
	}
	if movedPrimary == 0 {
		t.Fatal("join moved nothing; the new member owns no keyspace")
	}
}

// Ownership balance: with vnodes, no member's primary share may be
// wildly off the mean.
func TestRingBalance(t *testing.T) {
	r := New(ids(6), 64)
	rnd := rand.New(rand.NewSource(3))
	counts := map[string]int{}
	const keys = 60000
	for k := 0; k < keys; k++ {
		counts[r.ReplicasFor(rnd.Uint64(), 1)[0]]++
	}
	mean := float64(keys) / 6
	for id, n := range counts {
		ratio := float64(n) / mean
		if ratio < 0.5 || ratio > 1.7 {
			t.Fatalf("member %s owns %.2fx the mean share", id, ratio)
		}
	}
}

func TestRingWindowsCoverEveryReplicaSet(t *testing.T) {
	r := New(ids(6), 32)
	wins := r.Windows(3)
	if len(wins) == 0 {
		t.Fatal("no windows")
	}
	index := map[string]bool{}
	for _, w := range wins {
		if len(w) != 3 {
			t.Fatalf("window %v has %d members", w, len(w))
		}
		index[fmt.Sprint(w)] = true
	}
	// Every actual key placement must appear among the windows.
	rnd := rand.New(rand.NewSource(17))
	for k := 0; k < 5000; k++ {
		set := r.ReplicasFor(rnd.Uint64(), 3)
		if !index[fmt.Sprint(set)] {
			t.Fatalf("replica set %v not enumerated by Windows", set)
		}
	}
}

func TestRingDefaults(t *testing.T) {
	r := New(ids(2), 0)
	if r.VNodes() != DefaultVNodes {
		t.Fatalf("vnodes=%d, want default %d", r.VNodes(), DefaultVNodes)
	}
	if r.Size() != 2 || len(r.Members()) != 2 {
		t.Fatalf("size=%d members=%v", r.Size(), r.Members())
	}
	if r.Equal(New(ids(2), 32)) {
		t.Fatal("rings with different vnode counts compare Equal")
	}
	if r.Equal(nil) {
		t.Fatal("ring equals nil")
	}
}
