package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcdb/internal/core"
	"dcdb/internal/membership"
	"dcdb/internal/rpc"
)

// parseArgs parses a command line the way main does, without exiting.
func parseArgs(t *testing.T, args ...string) *flags {
	t.Helper()
	fs := flag.NewFlagSet("dcdbnode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOpenRefusesBadFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-listen", "127.0.0.1:0"}, "-data is required"},
		{[]string{"-listen", "127.0.0.1:0", "-data", dir, "-cache-bytes", "lots"}, "-cache-bytes"},
	} {
		if d, err := open(parseArgs(t, c.args...)); err == nil || !strings.Contains(err.Error(), c.want) {
			if d != nil {
				d.close()
			}
			t.Fatalf("%v: %v, want an error naming %s", c.args, err, c.want)
		}
	}
}

func TestJoinSeeds(t *testing.T) {
	for _, c := range []struct {
		join string
		want []string
	}{
		{"self", nil},
		{"127.0.0.1:4441", nil}, // the node's own address
		{" self , ,127.0.0.1:4442,127.0.0.1:4441, 127.0.0.1:4443 ", []string{"127.0.0.1:4442", "127.0.0.1:4443"}},
	} {
		if got := joinSeeds(c.join, "127.0.0.1:4441"); !reflect.DeepEqual(got, c.want) {
			t.Errorf("joinSeeds(%q) = %v, want %v", c.join, got, c.want)
		}
	}
}

func TestJoinSelfBootstrapsRing(t *testing.T) {
	d, err := open(parseArgs(t, "-listen", "127.0.0.1:0", "-data", t.TempDir(),
		"-join", "self", "-gossip-interval", "10ms"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ms, err := membership.DiscoverRing(d.srv.Addr())
	if err != nil || len(ms) != 1 || ms[0].ID != d.srv.Addr() {
		t.Fatalf("ring of a -join self node: %+v, %v; want itself alone", ms, err)
	}
}

func TestReopenRecoversWrittenReading(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node0")
	id := core.SensorID{Hi: 1, Lo: 2}
	for round := 0; round < 2; round++ {
		d, err := open(parseArgs(t, "-listen", "127.0.0.1:0", "-data", dir))
		if err != nil {
			t.Fatal(err)
		}
		c := rpc.NewClient(d.srv.Addr(), rpc.ClientOptions{})
		if round == 0 {
			if err := c.InsertBatch(id, []core.Reading{{Timestamp: 7, Value: 42}}, 0); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := c.Query(id, 0, 100)
		c.Close()
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil || len(rs) != 1 || rs[0] != (core.Reading{Timestamp: 7, Value: 42}) {
			t.Fatalf("round %d: %v, %v; want the one written reading", round, rs, err)
		}
	}
}
