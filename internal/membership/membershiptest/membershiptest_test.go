package membershiptest

import (
	"testing"

	"dcdb/internal/membership"
)

func TestStartNodesConverge(t *testing.T) {
	addrs := StartNodes(t, 3)
	if len(addrs) != 3 {
		t.Fatalf("%d addresses, want 3", len(addrs))
	}
	for _, seed := range addrs {
		ms, err := membership.DiscoverRing(seed)
		if err != nil || len(ms) != 3 {
			t.Fatalf("%s serves %d members, err %v", seed, len(ms), err)
		}
	}
}
