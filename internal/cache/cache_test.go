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
	rs := c.Range("/a", 0, base+time.Hour.Nanoseconds())
	if len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("eviction failed: %+v", rs)
	}
	// The newest reading always survives even if "old".
	c2 := New(time.Nanosecond)
	c2.Store("/b", r(1, 9))
	if got, ok := c2.Latest("/b"); !ok || got.Value != 9 {
		t.Error("newest reading evicted")
	}
}

func TestRange(t *testing.T) {
	c := New(time.Hour)
	for i := int64(0); i < 10; i++ {
		c.Store("/a", r(i*100, float64(i)))
	}
	rs := c.Range("/a", 250, 650)
	if len(rs) != 4 {
		t.Fatalf("Range = %d readings", len(rs))
	}
	if rs[0].Value != 3 || rs[3].Value != 6 {
		t.Fatalf("Range bounds wrong: %+v", rs)
	}
	if c.Range("/missing", 0, 100) != nil {
		t.Error("Range of unknown topic not nil")
	}
}

func TestRingGrowthPreservesOrder(t *testing.T) {
	c := New(time.Hour)
	const n = 100
	for i := int64(0); i < n; i++ {
		c.Store("/a", r(i, float64(i)))
	}
	rs := c.Range("/a", 0, n)
	if len(rs) != n {
		t.Fatalf("len = %d", len(rs))
	}
	for i, x := range rs {
		if x.Value != float64(i) {
			t.Fatalf("order broken at %d: %v", i, x.Value)
		}
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
	snap := c.Snapshot()
	if len(snap) != 2 || snap["/a"].Value != 10 || snap["/b"].Value != 30 {
		t.Fatalf("Snapshot = %+v", snap)
	}
	if len(c.Topics()) != 2 || c.NumTopics() != 2 {
		t.Errorf("Topics = %v, NumTopics = %d", c.Topics(), c.NumTopics())
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
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
	rs := c.Range("/a", 0, newest)
	if len(rs) != 2 || rs[0].Value != 2 || rs[1].Value != 3 {
		t.Errorf("New(0) kept %+v, want the readings within %v of the newest", rs, DefaultWindow)
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
		c.Snapshot()
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
					c.Range(topic, 0, i)
					c.Average(topic, time.Hour)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.Snapshot()
			c.Topics()
			c.Len()
			c.SizeBytes()
		}
	}()
	wg.Wait()
	<-done
	if got := len(c.Topics()); got != workers {
		t.Fatalf("Topics = %d, want %d", got, workers)
	}
	if got := c.Len(); got != workers*perWorker {
		t.Fatalf("Len = %d, want %d", got, workers*perWorker)
	}
}

// Property: after storing n in-window readings with increasing
// timestamps, Range returns them all in order.
func TestRangeOrderQuick(t *testing.T) {
	f := func(vals []float64) bool {
		c := New(time.Hour)
		for i, v := range vals {
			c.Store("/q", r(int64(i), v))
		}
		rs := c.Range("/q", 0, int64(len(vals)))
		if len(rs) != len(vals) {
			return false
		}
		for i := range rs {
			if rs[i].Value != vals[i] && !(rs[i].Value != rs[i].Value && vals[i] != vals[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
