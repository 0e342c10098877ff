package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestReadingTime(t *testing.T) {
	ts := time.Date(2019, 11, 17, 12, 0, 0, 500, time.UTC)
	r := Reading{Timestamp: ts.UnixNano(), Value: 42.5}
	if !r.Time().Equal(ts) {
		t.Fatalf("Time() = %v, want %v", r.Time(), ts)
	}
	if s := r.String(); s != "2019-11-17T12:00:00.0000005Z,42.5" {
		t.Fatalf("String() = %q", s)
	}
}

func TestMetadataValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Metadata
		ok   bool
	}{
		{"plain", Metadata{Topic: "/a/b/c"}, true},
		{"no topic", Metadata{}, false},
		{"bad topic", Metadata{Topic: "/a//c"}, false},
		{"virtual ok", Metadata{Topic: "/v/pue", Virtual: true, Expression: "a/b"}, true},
		{"virtual no expr", Metadata{Topic: "/v/pue", Virtual: true}, false},
		{"expr not virtual", Metadata{Topic: "/a", Expression: "1+1"}, false},
		{"negative scale", Metadata{Topic: "/a", Scale: -2}, false},
	}
	for _, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestMetadataEffectiveScale(t *testing.T) {
	m := Metadata{Topic: "/a"}
	if m.EffectiveScale() != 1 {
		t.Fatalf("default scale = %v, want 1", m.EffectiveScale())
	}
	m.Scale = 0.001
	if m.EffectiveScale() != 0.001 {
		t.Fatalf("scale = %v, want 0.001", m.EffectiveScale())
	}
}

func TestParseTopic(t *testing.T) {
	parts, err := ParseTopic("/lrz/cm3/r01/node5/power")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 || parts[0] != "lrz" || parts[4] != "power" {
		t.Fatalf("parts = %v", parts)
	}
	if _, err := ParseTopic(""); err == nil {
		t.Error("empty topic accepted")
	}
	if _, err := ParseTopic("/a//b"); err == nil {
		t.Error("empty level accepted")
	}
	if _, err := ParseTopic("/a/+/b"); err == nil {
		t.Error("wildcard accepted")
	}
	if _, err := ParseTopic("/1/2/3/4/5/6/7/8/9"); err == nil {
		t.Error("over-deep topic accepted")
	}
	// Leading slash optional.
	p2, err := ParseTopic("a/b")
	if err != nil || len(p2) != 2 {
		t.Fatalf("ParseTopic(a/b) = %v, %v", p2, err)
	}
}

func TestCanonicalTopic(t *testing.T) {
	got, err := CanonicalTopic("a/b/c")
	if err != nil || got != "/a/b/c" {
		t.Fatalf("CanonicalTopic = %q, %v", got, err)
	}
}

func TestSensorIDLevels(t *testing.T) {
	var id SensorID
	for i := 0; i < MaxTopicLevels; i++ {
		id = id.WithLevel(i, uint16(i+1)*100)
	}
	for i := 0; i < MaxTopicLevels; i++ {
		if got := id.Level(i); got != uint16(i+1)*100 {
			t.Errorf("Level(%d) = %d, want %d", i, got, (i+1)*100)
		}
	}
	// Out-of-range accesses are harmless.
	if id.Level(-1) != 0 || id.Level(MaxTopicLevels) != 0 {
		t.Error("out-of-range Level not zero")
	}
	if id.WithLevel(99, 5) != id {
		t.Error("out-of-range WithLevel mutated the SID")
	}
}

func TestSensorIDPrefix(t *testing.T) {
	var id SensorID
	for i := 0; i < MaxTopicLevels; i++ {
		id = id.WithLevel(i, uint16(i+1))
	}
	for n := 0; n <= MaxTopicLevels; n++ {
		p := id.Prefix(n)
		for i := 0; i < MaxTopicLevels; i++ {
			want := uint16(0)
			if i < n {
				want = uint16(i + 1)
			}
			if got := p.Level(i); got != want {
				t.Fatalf("Prefix(%d).Level(%d) = %d, want %d", n, i, got, want)
			}
		}
	}
	if id.Prefix(-1) != (SensorID{}) {
		t.Error("negative prefix not empty")
	}
	if id.Prefix(99) != id {
		t.Error("over-deep prefix changed SID")
	}
}

func TestSensorIDCompareAndString(t *testing.T) {
	a := SensorID{Hi: 1, Lo: 2}
	b := SensorID{Hi: 1, Lo: 3}
	c := SensorID{Hi: 2, Lo: 0}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 || b.Compare(c) != -1 || c.Compare(b) != 1 {
		t.Error("Compare ordering wrong")
	}
	if s := a.String(); s != "00000000000000010000000000000002" {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
}

func TestSensorIDLevelRoundtripQuick(t *testing.T) {
	f := func(codes [MaxTopicLevels]uint16) bool {
		var id SensorID
		for i, c := range codes {
			id = id.WithLevel(i, c)
		}
		for i, c := range codes {
			if id.Level(i) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopicMapperRoundtrip(t *testing.T) {
	m := NewTopicMapper()
	topics := []string{
		"/lrz/cm3/r01/n01/power",
		"/lrz/cm3/r01/n02/power",
		"/lrz/cm3/r01/n01/temp",
		"/lrz/sng/r01/n01/power",
	}
	ids := make(map[SensorID]string)
	for _, tp := range topics {
		id, err := m.Map(tp)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := ids[id]; dup {
			t.Fatalf("SID collision between %q and %q", tp, other)
		}
		ids[id] = tp
		back, ok := m.ReverseParts(id, nil)
		if !ok || JoinTopic(back) != tp {
			t.Fatalf("ReverseParts(%v) = %q, %v; want %q", id, back, ok, tp)
		}
	}
	// Mapping is stable.
	id1, _ := m.Map(topics[0])
	id2, _ := m.Map(topics[0])
	if id1 != id2 {
		t.Error("Map not idempotent")
	}
}

func TestTopicMapperSharedPrefixesShareSIDPrefixes(t *testing.T) {
	m := NewTopicMapper()
	a, _ := m.Map("/lrz/cm3/r01/n01/power")
	b, _ := m.Map("/lrz/cm3/r01/n02/power")
	c, _ := m.Map("/lrz/sng/r01/n01/power")
	if a.Prefix(3) != b.Prefix(3) {
		t.Error("same subtree should share prefix")
	}
	if a.Prefix(2) == c.Prefix(2) {
		t.Error("different systems should differ at level 2")
	}
}

func TestTopicMapperLookup(t *testing.T) {
	m := NewTopicMapper()
	if _, ok := m.Lookup("/a/b"); ok {
		t.Error("Lookup invented codes")
	}
	want, _ := m.Map("/a/b")
	got, ok := m.Lookup("/a/b")
	if !ok || got != want {
		t.Fatalf("Lookup = %v, %v; want %v", got, ok, want)
	}
	if _, ok := m.Lookup("bad//topic"); ok {
		t.Error("Lookup accepted malformed topic")
	}
}

func TestTopicMapperExportImport(t *testing.T) {
	m := NewTopicMapper()
	topics := []string{"/x/y/z", "/x/q/z", "/w/space name/v"}
	want := make(map[string]SensorID)
	for _, tp := range topics {
		id, err := m.Map(tp)
		if err != nil {
			t.Fatal(err)
		}
		want[tp] = id
	}
	lines := m.Export()
	m2 := NewTopicMapper()
	if err := m2.Import(lines); err != nil {
		t.Fatal(err)
	}
	for tp, id := range want {
		got, ok := m2.Lookup(tp)
		if !ok || got != id {
			t.Errorf("after import, Lookup(%q) = %v, %v; want %v", tp, got, ok, id)
		}
	}
	// Conflicting import is rejected.
	if err := m2.Import([]string{"0/x 99"}); err == nil {
		t.Error("conflicting import accepted")
	}
	if err := m2.Import([]string{"garbage"}); err == nil {
		t.Error("garbage import accepted")
	}
	if err := m2.Import([]string{"9/x 1"}); err == nil {
		t.Error("out-of-range level accepted")
	}
}

func TestTopicMapperReverseUnknown(t *testing.T) {
	m := NewTopicMapper()
	if _, ok := m.ReverseParts(SensorID{Hi: 0x0001_0000_0000_0000}, nil); ok {
		t.Error("reversing an unassigned code succeeded")
	}
	if _, ok := m.ReverseParts(SensorID{}, nil); ok {
		t.Error("reversing the empty SID succeeded")
	}
}

func TestTopicMapperReverseParts(t *testing.T) {
	m := NewTopicMapper()
	id, err := m.Map("/lrz/cm3/r01/power")
	if err != nil {
		t.Fatal(err)
	}
	buf := []string{"kept"}
	parts, ok := m.ReverseParts(id, buf)
	if !ok || strings.Join(parts, "|") != "kept|lrz|cm3|r01|power" {
		t.Fatalf("ReverseParts = %q, %v", parts, ok)
	}
	// An import may bind code 2 but not code 1: code 1 was never
	// assigned, so no topic holds it.
	if err := m.Import([]string{"0/other 3"}); err != nil {
		t.Fatal(err)
	}
	gap := SensorID{}.WithLevel(0, 2)
	if parts, ok := m.ReverseParts(gap, buf); ok || len(parts) != 1 {
		t.Errorf("ReverseParts of an unbound code = %q, %v", parts, ok)
	}
}

func TestHierarchyAddPartsIsAdd(t *testing.T) {
	topics := []string{"/a/b/c", "/a/b", "/a/d", "/e", "/a/b/c/f"}
	byTopic, byParts := NewHierarchy(), NewHierarchy()
	for _, tp := range topics {
		if err := byTopic.Add(tp); err != nil {
			t.Fatal(err)
		}
		parts, _ := ParseTopic(tp)
		byParts.AddParts(parts)
	}
	for _, path := range []string{"", "/a", "/a/b", "/a/b/c", "/a/b/c/f", "/e", "/x"} {
		if a, b := byTopic.Sensors(path), byParts.Sensors(path); strings.Join(a, " ") != strings.Join(b, " ") {
			t.Errorf("Sensors(%q): %v by topic, %v by parts", path, a, b)
		}
		if a, b := byTopic.Children(path), byParts.Children(path); strings.Join(a, " ") != strings.Join(b, " ") || (a == nil) != (b == nil) {
			t.Errorf("Children(%q): %v by topic, %v by parts", path, a, b)
		}
	}
	if n := len(byParts.Sensors("")); n != len(topics) {
		t.Fatalf("%d sensors, want %d", n, len(topics))
	}
}

func TestHierarchy(t *testing.T) {
	h := NewHierarchy()
	topics := []string{
		"/lrz/cm3/r01/n01/power",
		"/lrz/cm3/r01/n01/temp",
		"/lrz/cm3/r01/n02/power",
		"/lrz/sng/r02/n01/power",
	}
	for _, tp := range topics {
		if err := h.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Add("//bad"); err == nil {
		t.Error("bad topic accepted")
	}
	if got := h.Children(""); len(got) != 1 || got[0] != "lrz" {
		t.Fatalf("Children(root) = %v", got)
	}
	if got := h.Children("/lrz"); len(got) != 2 || got[0] != "cm3" || got[1] != "sng" {
		t.Fatalf("Children(/lrz) = %v", got)
	}
	if got := h.Children("/lrz/cm3/r01/n01"); len(got) != 2 {
		t.Fatalf("leaf children = %v", got)
	}
	if h.Children("/nope") != nil {
		t.Error("Children of unknown path not nil")
	}
	// Sensors includes its path exactly when a sensor terminates there.
	for path, sensor := range map[string]bool{"/lrz/cm3/r01/n01/power": true, "/lrz/cm3": false, "/zz": false} {
		if got := slices.Contains(h.Sensors(path), path); got != sensor {
			t.Errorf("Sensors(%q) lists the path itself: %v, want %v", path, got, sensor)
		}
	}
	sensors := h.Sensors("/lrz/cm3")
	if len(sensors) != 3 {
		t.Fatalf("Sensors(/lrz/cm3) = %v", sensors)
	}
	all := h.Sensors("")
	if len(all) != 4 {
		t.Fatalf("Sensors(root) = %v", all)
	}
	if h.Sensors("/none") != nil {
		t.Error("Sensors of unknown path not nil")
	}
}

func TestTopicMapperConcurrentMap(t *testing.T) {
	// Concurrent Map calls racing on first-sight assignment and on the
	// read-mostly fast path must still produce a consistent 1:1
	// topic↔SID mapping.
	m := NewTopicMapper()
	topics := make([]string, 64)
	for i := range topics {
		topics[i] = JoinTopic([]string{"race", "sys",
			string(rune('a' + i%8)), string(rune('a' + i/8)), "power"})
	}
	const workers = 8
	got := make([][]SensorID, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			ids := make([]SensorID, len(topics))
			// Each worker walks the topic list from a different
			// offset so first-sight races actually happen.
			for i := range topics {
				tp := topics[(i+w*13)%len(topics)]
				id, err := m.Map(tp)
				if err != nil {
					t.Error(err)
				}
				ids[(i+w*13)%len(topics)] = id
			}
			got[w] = ids
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	// All workers agree on every topic's SID.
	for w := 1; w < workers; w++ {
		for i := range topics {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d mapped %q to %v, worker 0 to %v",
					w, topics[i], got[w][i], got[0][i])
			}
		}
	}
	// The mapping is injective and reversible.
	seen := make(map[SensorID]string)
	for i, tp := range topics {
		if prev, dup := seen[got[0][i]]; dup {
			t.Fatalf("topics %q and %q share SID %v", prev, tp, got[0][i])
		}
		seen[got[0][i]] = tp
		back, ok := m.ReverseParts(got[0][i], nil)
		if !ok || JoinTopic(back) != tp {
			t.Fatalf("ReverseParts(%v) = %q, %v; want %q", got[0][i], back, ok, tp)
		}
	}
}

func TestCanonicalTopicRejectsMalformed(t *testing.T) {
	if _, err := CanonicalTopic(""); err == nil {
		t.Error("empty topic accepted")
	}
}
