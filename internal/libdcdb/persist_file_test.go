package libdcdb

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

func TestMetadataFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metadata")

	c := newConn(t)
	if err := c.PublishSensor(core.Metadata{Topic: "/n1/energy", Unit: "mJ", Scale: 0.001}); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishSensor(core.Metadata{Topic: "/n1/temp", Unit: "C"}); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveMetadataFile(path); err != nil {
		t.Fatal(err)
	}
	// A stale temp from a crashed save must be cleaned by the load.
	if err := os.WriteFile(path+".tmp999", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := Connect(store.NewNode(0), nil)
	if err := c2.LoadMetadataFile(path); err != nil {
		t.Fatal(err)
	}
	m, ok := c2.Metadata("/n1/energy")
	if !ok || m.Unit != "mJ" || m.Scale != 0.001 {
		t.Fatalf("restored metadata %+v, %v", m, ok)
	}
	if _, ok := c2.Metadata("/n1/temp"); !ok {
		t.Fatal("second sensor lost")
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Fatalf("stale temps survived the load: %v", left)
	}

	// A missing file is a fresh database, not an error.
	c3 := Connect(store.NewNode(0), nil)
	if err := c3.LoadMetadataFile(filepath.Join(dir, "absent")); err != nil {
		t.Fatalf("missing metadata file: %v", err)
	}
}

func TestRegisterTopic(t *testing.T) {
	c := newConn(t)
	if err := c.RegisterTopic("/rack1/node0/power"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range c.ListSensors("/rack1") {
		if s == "/rack1/node0/power" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered topic not visible in the hierarchy")
	}
	if _, ok := c.Metadata("/rack1/node0/power"); ok {
		t.Fatal("RegisterTopic must not attach metadata")
	}
	if err := c.RegisterTopic("//bad"); err == nil {
		t.Fatal("bad topic accepted")
	}
}

// TestRegisterStoredListsAsRegisterTopic: registering stored SIDs
// straight from the topic map lists, navigates and skips exactly as
// registering each reversed topic does.
func TestRegisterStoredListsAsRegisterTopic(t *testing.T) {
	byTopic, byID := newConn(t), newConn(t)
	var ids []core.SensorID
	for _, topic := range []string{"/r1/n0/power", "/r1/n0/power/avg", "/r1/n1/temp", "/r2/x", "/a"} {
		id, err := byID.Mapper().Map(topic)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ids = append(ids, core.SensorID{}.WithLevel(0, 99)) // no topic names it
	for _, id := range ids {
		if parts, ok := byID.Mapper().ReverseParts(id, nil); ok {
			if err := byTopic.RegisterTopic(core.JoinTopic(parts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	byID.RegisterStored(ids)
	for _, path := range []string{"", "/r1", "/r1/n0", "/r1/n0/power", "/r2", "/zz"} {
		if a, b := byTopic.ListSensors(path), byID.ListSensors(path); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("ListSensors(%q): %v by topic, %v stored", path, a, b)
		}
		if a, b := byTopic.Children(path), byID.Children(path); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("Children(%q): %v by topic, %v stored", path, a, b)
		}
	}
	if got := byID.ListSensors(""); len(got) != 5 {
		t.Fatalf("ListSensors = %v, want the 5 named sensors", got)
	}
}

func TestQueryStreamScaled(t *testing.T) {
	c := newConn(t)
	if err := c.PublishSensor(core.Metadata{Topic: "/n1/energy", Unit: "mJ", Scale: 0.001}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := insert(c, "/n1/energy", rd(i, float64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.QueryStream("/n1/energy", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []core.Reading
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	if len(got) != 10 {
		t.Fatalf("streamed %d readings, want 10", len(got))
	}
	for i, r := range got {
		if r.Value != float64(i) {
			t.Fatalf("reading %d not scaled: %+v", i, r)
		}
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("drained stream Next: %v", err)
	}
}
