// Package backoff is the one retry/backoff policy shared by every
// component that re-attempts a failed operation: the rpc client's
// reconnect gate, the hint replayer probing down replicas, and the
// spiller retrying failed run-file writes. Before this package each of
// those hand-rolled its own variant (doubling-with-cap, fixed ticker,
// fixed delay), which meant three different stampede behaviours to
// reason about under failure; now there is one, and it is jittered so
// many coordinators recovering from the same outage do not retry in
// lockstep.
package backoff

import (
	"math/rand"
	"sync"
	"time"
)

// Policy describes an exponential backoff schedule. The zero value is
// not useful; fill the fields explicitly.
type Policy struct {
	// Initial is the delay after the first failure.
	Initial time.Duration
	// Max caps the delay; 0 means no cap.
	Max time.Duration
	// Multiplier scales the delay per consecutive failure; values < 1
	// (including 0) select 2.
	Multiplier float64
	// Jitter is the fraction of each delay randomized away (0..1): the
	// delay for attempt k is uniform in [d*(1-Jitter), d]. 0 disables
	// jitter — deterministic schedules for tests.
	Jitter float64
}

// jitterRand is the package-wide jitter source. Backoff jitter must
// not be deterministic across processes (lockstep retries are the
// thing jitter exists to break), so it is seeded globally; tests that
// need determinism set Jitter to 0 instead.
var (
	jmu sync.Mutex
	jrd = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Delay returns the backoff delay after `failures` consecutive
// failures (1 = first failure). Zero or negative failures return 0.
func (p Policy) Delay(failures int) time.Duration {
	if failures <= 0 || p.Initial <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.Initial)
	for i := 1; i < failures; i++ {
		d *= mult
		if p.Max > 0 && d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if p.Max > 0 && d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		jmu.Lock()
		f := jrd.Float64()
		jmu.Unlock()
		d -= d * p.Jitter * f
	}
	return time.Duration(d)
}
