package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dcdb/internal/core"
)

func r(ts int64, v float64) core.Reading { return core.Reading{Timestamp: ts, Value: v} }

func TestStoreAndLatest(t *testing.T) {
	c := New(time.Minute)
	if _, ok := c.Latest("/a"); ok {
		t.Error("Latest on empty cache")
	}
	c.Store("/a", r(100, 1))
	c.Store("/a", r(200, 2))
	got, ok := c.Latest("/a")
	if !ok || got.Value != 2 || got.Timestamp != 200 {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}
}

func TestWindowEviction(t *testing.T) {
	c := New(time.Second)
	base := time.Now().UnixNano()
	c.Store("/a", r(base, 1))
	c.Store("/a", r(base+2*time.Second.Nanoseconds(), 2))
	if avg, ok := c.Average("/a", time.Hour); !ok || avg != 2 {
		t.Fatalf("eviction failed: the cached readings average %v, want 2", avg)
	}
	// The newest reading always survives even if "old".
	c2 := New(time.Nanosecond)
	c2.Store("/b", r(1, 9))
	if got, ok := c2.Latest("/b"); !ok || got.Value != 9 {
		t.Error("newest reading evicted")
	}
}

// TestRingGrowthPreservesOrder: a ring that grows while it evicts keeps
// its readings oldest first, so the newest stays Latest and eviction
// drops exactly the readings older than the window.
func TestRingGrowthPreservesOrder(t *testing.T) {
	c := New(50 * time.Nanosecond)
	const n = 100
	for i := int64(0); i < n; i++ {
		c.Store("/a", r(i, float64(i)))
		if got, _ := c.Latest("/a"); got.Value != float64(i) {
			t.Fatalf("order broken at %d: Latest = %v", i, got.Value)
		}
	}
	// Readings 49..99 are within 50 ns of the newest.
	if avg, _ := c.Average("/a", time.Hour); avg != 74 {
		t.Fatalf("the kept readings average %v, want 74", avg)
	}
}

func TestAverage(t *testing.T) {
	c := New(time.Hour)
	base := int64(1e9)
	for i := int64(0); i < 5; i++ {
		c.Store("/a", r(base+i*time.Second.Nanoseconds(), float64(i+1)))
	}
	// Last 2s of cache: readings at t=3s (4) and t=4s (5).
	avg, ok := c.Average("/a", 1500*time.Millisecond)
	if !ok || avg != 4.5 {
		t.Fatalf("Average = %v, %v", avg, ok)
	}
	avg, ok = c.Average("/a", time.Hour)
	if !ok || avg != 3 {
		t.Fatalf("full Average = %v, %v", avg, ok)
	}
	if _, ok := c.Average("/missing", time.Second); ok {
		t.Error("Average of unknown topic")
	}
}

func TestSnapshotTopicsLen(t *testing.T) {
	c := New(time.Hour)
	if !c.Store("/a", r(1, 10)) || !c.Store("/b", r(2, 20)) || c.Store("/b", r(3, 30)) {
		t.Error("Store must report a topic's first reading, and only that")
	}
	a, _ := c.Latest("/a")
	b, _ := c.Latest("/b")
	if a.Value != 10 || b.Value != 30 {
		t.Fatalf("Latest = %v and %v, want 10 and 30", a.Value, b.Value)
	}
	if len(c.Topics()) != 2 || c.NumTopics() != 2 {
		t.Errorf("Topics = %v, NumTopics = %d", c.Topics(), c.NumTopics())
	}
	if c.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

// TestDefaultWindow: a cache made with no window keeps DefaultWindow
// of readings behind the newest.
func TestDefaultWindow(t *testing.T) {
	c := New(0)
	sec := time.Second.Nanoseconds()
	newest := DefaultWindow.Nanoseconds() + 10*sec
	c.Store("/a", r(0, 1))      // DefaultWindow+10s behind: evicted
	c.Store("/a", r(20*sec, 2)) // DefaultWindow-10s behind: kept
	c.Store("/a", r(newest, 3))
	if avg, _ := c.Average("/a", time.Hour); avg != 2.5 {
		t.Errorf("New(0) kept readings averaging %v, want 2.5: the readings within %v of the newest", avg, DefaultWindow)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(time.Minute)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 1000; i++ {
			c.Store("/a", r(i, float64(i)))
		}
	}()
	for i := 0; i < 1000; i++ {
		c.Latest("/a")
		c.Topics()
	}
	<-done
}

func TestConcurrentStripedAccess(t *testing.T) {
	// Writers on distinct topics plus aggregate readers, so the race
	// detector crosses every stripe.
	c := New(time.Hour)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := fmt.Sprintf("/race/t%d", w)
			for i := int64(0); i < perWorker; i++ {
				c.Store(topic, r(i, float64(i)))
				if i%100 == 0 {
					c.Latest(topic)
					c.Average(topic, time.Hour)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.Topics()
			c.NumTopics()
			c.SizeBytes()
		}
	}()
	wg.Wait()
	<-done
	if got := len(c.Topics()); got != workers {
		t.Fatalf("Topics = %d, want %d", got, workers)
	}
	for w := 0; w < workers; w++ {
		topic := fmt.Sprintf("/race/t%d", w)
		if avg, _ := c.Average(topic, time.Hour); avg != (perWorker-1)/2.0 {
			t.Fatalf("%s: the cached readings average %v, want every reading kept", topic, avg)
		}
	}
}

// Property: after storing n in-window readings with increasing
// timestamps, the cache keeps them all in order: the last is Latest,
// and they average as summed oldest first.
func TestRangeOrderQuick(t *testing.T) {
	same := func(a, b float64) bool { return a == b || (a != a && b != b) } // NaN-safe
	f := func(vals []float64) bool {
		c := New(time.Hour)
		var sum float64
		for i, v := range vals {
			c.Store("/q", r(int64(i), v))
			sum += v
		}
		latest, ok := c.Latest("/q")
		avg, _ := c.Average("/q", time.Hour)
		if len(vals) == 0 {
			return !ok
		}
		return same(latest.Value, vals[len(vals)-1]) && same(avg, sum/float64(len(vals)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
