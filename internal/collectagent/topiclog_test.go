package collectagent

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dcdb/internal/core"
)

// grow maps topics, failing the test on an error.
func grow(t *testing.T, m *core.TopicMapper, topics ...string) {
	t.Helper()
	for _, tp := range topics {
		if _, err := m.Map(tp); err != nil {
			t.Fatal(err)
		}
	}
}

// loaded is what LoadTopics reads back from dir.
func loaded(t *testing.T, dir string) *core.TopicMapper {
	t.Helper()
	m := core.NewTopicMapper()
	if err := LoadTopics(dir, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTopicLogTornTail: a last line without its newline is an append a
// crash tore. LoadTopics ignores it; the agent's open cuts it off, and
// later appends follow the last complete line.
func TestTopicLogTornTail(t *testing.T) {
	dir := t.TempDir()
	m := core.NewTopicMapper()
	l, err := OpenTopicLog(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	grow(t, m, "/a/b")
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	grow(t, m, "/a/c")
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := TopicsPath(dir)
	whole, err := os.ReadFile(path)
	if err != nil || string(whole) != "0/a 1\n1/b 1\n1/c 2\n" {
		t.Fatalf("appended map %q (%v)", whole, err)
	}
	if err := os.WriteFile(path, append(whole, "1/d 3"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := loaded(t, dir); !maps(got, "/a/c") || got.Lens()[1] != 2 {
		t.Fatalf("LoadTopics read the torn line: levels %v", got.Lens())
	}

	m2 := core.NewTopicMapper()
	l2, err := OpenTopicLog(dir, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if data, _ := os.ReadFile(path); !bytes.Equal(data, whole) {
		t.Fatalf("open left %q, want the torn line cut off: %q", data, whole)
	}
	grow(t, m2, "/a/e")
	if err := l2.Append(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != string(whole)+"1/e 3\n" {
		t.Fatalf("append after the cut: %q", data)
	}
	if got := loaded(t, dir); !maps(got, "/a/e") {
		t.Fatal("/a/e not read back")
	}
}

// maps reports whether m maps topic.
func maps(m *core.TopicMapper, topic string) bool {
	_, ok := m.Lookup(topic)
	return ok
}

// TestTopicLogFailedAppendRewrites: an append that fails leaves the
// file's tail unknown, so the next append rewrites the file whole
// (SaveTopics' sorted export) before it appends again.
func TestTopicLogFailedAppendRewrites(t *testing.T) {
	dir := t.TempDir()
	m := core.NewTopicMapper()
	l, err := OpenTopicLog(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	grow(t, m, "/r/b")
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the next write fails
	grow(t, m, "/r/a")
	if err := l.Append(); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	grow(t, m, "/q/z")
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(m.Export(), "\n") + "\n"
	if data, _ := os.ReadFile(TopicsPath(dir)); string(data) != want {
		t.Fatalf("after a failed append: %q, want the whole map rewritten: %q", data, want)
	}
	grow(t, m, "/q/y")
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(TopicsPath(dir)); string(data) != want+"1/y 4\n" {
		t.Fatalf("append after the rewrite: %q", data)
	}
	got := loaded(t, dir)
	for _, tp := range []string{"/r/b", "/r/a", "/q/z", "/q/y"} {
		want, _ := m.Lookup(tp)
		if id, ok := got.Lookup(tp); !ok || id != want {
			t.Fatalf("%s read back as %v (%v), want %v", tp, id, ok, want)
		}
	}
}

// TestTopicLogGroupsConcurrentAppends: appends racing on one log each
// return once their codes are durable, and every code is written once.
func TestTopicLogGroupsConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	m := core.NewTopicMapper()
	l, err := OpenTopicLog(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, errs[i] = m.Map(fmt.Sprintf("/g/s%d", i)); errs[i] == nil {
				errs[i] = l.Append()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	data, _ := os.ReadFile(TopicsPath(dir))
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != callers+1 {
		t.Fatalf("%d lines for %d codes: %q", len(lines), callers+1, data)
	}
	got := loaded(t, dir)
	for i := 0; i < callers; i++ {
		if !maps(got, fmt.Sprintf("/g/s%d", i)) {
			t.Fatalf("/g/s%d not durable", i)
		}
	}
}

// TestTopicLogGrowthAllocs: a growth event appends what the dictionary
// grew by, so its allocations do not follow the dictionary's size. The
// median over twenty events is compared: a stray allocation of the
// runtime's own goroutines lands in one event, not in most.
func TestTopicLogGrowthAllocs(t *testing.T) {
	allocs := func(size int) uint64 {
		dir := t.TempDir()
		m := core.NewTopicMapper()
		lines := []string{"0/h 1"}
		for i := 1; i <= size; i++ {
			lines = append(lines, fmt.Sprintf("1/s%d %d", i, i))
		}
		if err := m.Import(lines); err != nil {
			t.Fatal(err)
		}
		l, err := OpenTopicLog(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.Append(); err != nil { // the first append writes the file whole
			t.Fatal(err)
		}
		per := make([]uint64, 20)
		var ms runtime.MemStats
		for k := range per {
			grow(t, m, fmt.Sprintf("/h/new%d", k))
			runtime.GC() // the new dictionary's garbage, collected outside the count
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			err := l.Append()
			runtime.ReadMemStats(&ms)
			per[k] = ms.Mallocs - before
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := loaded(t, dir).Lens()[1]; int(got) != size+len(per) {
			t.Fatalf("%d sensor codes read back, want %d", got, size+len(per))
		}
		slices.Sort(per)
		return per[len(per)/2]
	}
	small, large := allocs(10), allocs(10000)
	t.Logf("median allocations of a growth event: %d over 10 entries, %d over 10 000", small, large)
	if large > small {
		t.Fatalf("a growth event allocates %d times over 10 000 entries, %d over 10", large, small)
	}
}
