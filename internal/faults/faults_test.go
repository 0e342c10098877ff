package faults

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcdb/internal/fsutil"
)

func TestRuleScoping(t *testing.T) {
	in := New(1)
	boom := errors.New("boom")
	r := in.AddRule(&Rule{Ops: FSWrite, Match: "/data/node1", After: 2, Count: 2, Err: boom})

	// Wrong op class and wrong target never match.
	if err := in.apply(FSSync, "/data/node1/wal", nil); err != nil {
		t.Fatal(err)
	}
	if err := in.apply(FSWrite, "/data/node2/wal", nil); err != nil {
		t.Fatal(err)
	}
	if r.Hits() != 0 {
		t.Fatalf("non-matching ops counted as hits: %d", r.Hits())
	}
	// After skips the first 2 matches, Count caps firing at 2.
	var errs int
	for i := 0; i < 10; i++ {
		if err := in.apply(FSWrite, "/data/node1/wal-3.log", nil); err != nil {
			if !errors.Is(err, boom) {
				t.Fatal(err)
			}
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("After=2 Count=2 fired %d times over 10 ops, want 2", errs)
	}
	if r.Hits() != 10 || r.Fired() != 2 {
		t.Fatalf("hits %d fired %d, want 10/2", r.Hits(), r.Fired())
	}
	// Disable stops matching; Enable re-arms (Count already spent).
	r.Disable()
	if err := in.apply(FSWrite, "/data/node1/x", nil); err != nil {
		t.Fatal(err)
	}
	r.Enable()
	if err := in.apply(FSWrite, "/data/node1/x", nil); err != nil {
		t.Fatalf("spent Count must not fire again: %v", err)
	}
}

func TestProbSeededDeterminism(t *testing.T) {
	fire := func(seed int64) []bool {
		in := New(seed)
		in.AddRule(&Rule{Ops: Dial, Prob: 0.5, Err: ErrInjected})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.apply(Dial, "addr", nil) != nil
		}
		return out
	}
	a, b := fire(7), fire(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	some := false
	for i := range a {
		if a[i] != fire(8)[i] {
			some = true
			break
		}
	}
	if !some {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDeriveRandIndependentStreams(t *testing.T) {
	in := New(3)
	a1, a2 := in.DeriveRand("victim"), in.DeriveRand("victim")
	if a1.Int63() != a2.Int63() {
		t.Fatal("same label must derive the same stream")
	}
	if in.DeriveRand("victim").Int63() == in.DeriveRand("flap").Int63() {
		t.Fatal("labels must derive independent streams")
	}
	if in.Seed() != 3 {
		t.Fatalf("Seed() = %d", in.Seed())
	}
}

func TestClockSkew(t *testing.T) {
	in := New(1)
	in.SetSkew(2 * time.Hour)
	d := time.Until(in.Now())
	if d < 2*time.Hour-time.Minute || d > 2*time.Hour+time.Minute {
		t.Fatalf("skewed Now off by %v", d)
	}
	in.SetSkew(-time.Hour)
	if time.Until(in.Now()) > -time.Hour+time.Minute {
		t.Fatal("negative skew not applied")
	}
}

// echoServer accepts one conn and echoes bytes until EOF.
func echoServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					c.Write(buf[:n])
				}
			}(c)
		}
	}()
	return l.Addr().String()
}

func TestDialAndConnFaults(t *testing.T) {
	addr := echoServer(t)
	in := New(1)

	// Dial rule blocks connection attempts to the matched address.
	cut := in.AddRule(&Rule{Ops: Dial, Match: addr, Err: ErrInjected})
	if _, err := in.Dial(addr, time.Second); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned dial: %v", err)
	}
	cut.Disable()

	c, err := in.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("hello through the injector")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := c.Read(buf); err != nil || !bytes.Equal(buf, msg) {
		t.Fatalf("clean echo: %q, %v", buf, err)
	}

	// Corrupt flips exactly one byte of an arriving payload.
	corrupt := in.AddRule(&Rule{Ops: ConnRead, Match: addr, Corrupt: true})
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range msg {
		if buf[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt rule changed %d bytes, want 1", diff)
	}
	corrupt.Disable()

	// An Err rule on reads severs the connection entirely.
	in.AddRule(&Rule{Ops: ConnRead, Match: addr, Err: ErrInjected})
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("severed read: %v", err)
	}
	if _, err := c.Read(buf); err == nil {
		t.Fatal("conn still readable after an injected sever")
	}
}

func TestConnWriteSever(t *testing.T) {
	addr := echoServer(t)
	in := New(1)
	c, err := in.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in.AddRule(&Rule{Ops: ConnWrite, Match: addr, Err: ErrInjected})
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("severed write: %v", err)
	}
}

func TestFSFaults(t *testing.T) {
	in := New(1)
	fs := in.FS(fsutil.OSFS{})
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")

	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	wfail := in.AddRule(&Rule{Ops: FSWrite, Match: dir, Err: ErrInjected})
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write: %v", err)
	}
	wfail.Disable()
	sfail := in.AddRule(&Rule{Ops: FSSync, Match: dir, Err: ErrInjected})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected sync: %v", err)
	}
	sfail.Disable()
	f.Close()

	// FSOpen covers Create, OpenFile, and CreateTemp (matched on dir).
	ofail := in.AddRule(&Rule{Ops: FSOpen, Match: dir, Err: ErrInjected})
	if _, err := fs.Create(filepath.Join(dir, "a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected create: %v", err)
	}
	if _, err := fs.OpenFile(path, os.O_WRONLY, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected open: %v", err)
	}
	if _, err := fs.CreateTemp(dir, "t*"); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected create-temp: %v", err)
	}
	ofail.Disable()

	// FSSyncDir covers directory fsyncs (matched on the directory).
	dfail := in.AddRule(&Rule{Ops: FSSyncDir, Match: dir, Err: ErrInjected})
	if err := fs.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected directory fsync: %v", err)
	}
	dfail.Disable()
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("directory fsync with the rule off: %v", err)
	}

	// CreateTemp passes through (and wraps) when no rule matches.
	tf, err := fs.CreateTemp(dir, "t*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Write([]byte("tmp")); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	os.Remove(tf.Name())

	// With every rule off the wrapped FS is transparent.
	g, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	g.Close()
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "record!" {
		t.Fatalf("file contents %q, err %v", b, err)
	}

	// Delay rules slow the op without failing it.
	in.AddRule(&Rule{Ops: FSWrite, Match: dir, Delay: 5 * time.Millisecond})
	h, err := fs.Create(filepath.Join(dir, "slow"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := h.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("delay rule did not slow the write")
	}
	h.Close()
}
