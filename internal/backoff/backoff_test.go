package backoff

import (
	"testing"
	"time"
)

func TestDelaySchedule(t *testing.T) {
	p := Policy{Initial: 100 * time.Millisecond, Max: time.Second, Multiplier: 2}
	want := []time.Duration{
		0, // 0 failures
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for failures, d := range want {
		if got := p.Delay(failures); got != d {
			t.Fatalf("Delay(%d) = %v, want %v", failures, got, d)
		}
	}
	if got := p.Delay(-3); got != 0 {
		t.Fatalf("Delay(-3) = %v, want 0", got)
	}
	if got := (Policy{}).Delay(5); got != 0 {
		t.Fatalf("zero policy Delay(5) = %v, want 0", got)
	}
}

func TestDelayDefaultsAndJitter(t *testing.T) {
	// Multiplier < 1 selects the default of 2.
	p := Policy{Initial: 10 * time.Millisecond, Multiplier: 0.5}
	if got := p.Delay(2); got != 20*time.Millisecond {
		t.Fatalf("Delay(2) with sub-1 multiplier = %v, want 20ms", got)
	}
	// No Max: keeps doubling.
	if got := p.Delay(10); got != 10*time.Millisecond<<9 {
		t.Fatalf("uncapped Delay(10) = %v", got)
	}
	// Jitter stays inside [d*(1-Jitter), d] and actually varies.
	j := Policy{Initial: time.Second, Multiplier: 2, Jitter: 0.5}
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := j.Delay(1)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("jittered delay %v outside [500ms, 1s]", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant delay")
	}
}
