package timers

import (
	"testing"
	"time"
)

// TestIdleReusesOnlyUnfiredTimers: the timer of a wait that ended in
// time serves the next wait; one that fired — received from or not —
// never comes back, so no wait can start with a stale tick.
func TestIdleReusesOnlyUnfiredTimers(t *testing.T) {
	var idle Idle
	a := idle.Get(time.Hour)
	idle.Put(a)
	if b := idle.Get(time.Hour); b != a {
		t.Fatal("an unfired timer was not reused")
	}
	// a is out again; a wait that overlaps gets a timer of its own.
	c := idle.Get(time.Hour)
	if c == a {
		t.Fatal("two waits share a timer")
	}
	idle.Put(c)
	idle.Put(a) // the later Put wins the slot; either is unfired

	for _, receive := range []bool{true, false} {
		var idle Idle
		fired := idle.Get(time.Millisecond)
		time.Sleep(20 * time.Millisecond)
		if receive {
			<-fired.C
		}
		idle.Put(fired)
		next := idle.Get(time.Hour)
		if next == fired {
			t.Fatalf("a fired timer (received=%v) was reused", receive)
		}
		select {
		case <-next.C:
			t.Fatalf("a wait after a fired timer (received=%v) timed out at once", receive)
		case <-time.After(20 * time.Millisecond):
		}
		idle.Put(next)
	}
}
