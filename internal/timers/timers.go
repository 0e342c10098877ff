// Package timers lets the waits of one connection share a timeout
// timer. A wait that almost always ends before its timeout — an RPC
// response, an MQTT PUBACK — otherwise allocates a timer and its
// channel per wait only to discard them.
package timers

import (
	"sync/atomic"
	"time"
)

// Idle keeps the timer of a finished wait for the next one. The zero
// value is ready; a connection has one, and waits that overlap simply
// find it taken and make their own.
type Idle struct{ t atomic.Pointer[time.Timer] }

// Get returns a timer that fires after d.
func (i *Idle) Get(d time.Duration) *time.Timer {
	if t := i.t.Swap(nil); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// Put ends a wait on t. A timer stopped before it fired has sent
// nothing and never will — under the timer-channel semantics of any Go
// version — so it is kept for the next Get to Reset. One that fired may
// still hold or owe its tick, which a later wait would take for an
// instant timeout: it is dropped.
func (i *Idle) Put(t *time.Timer) {
	if t.Stop() {
		i.t.Store(t)
	}
}
