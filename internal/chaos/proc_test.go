package chaos

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/faults"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// nodeProc wraps one real dcdbnode OS process.
type nodeProc struct {
	cmd  *exec.Cmd
	addr string
}

// startNode launches dcdbnode on dir with optional extra flags (gossip
// membership, timers). The first launch for a directory picks a free
// port; restarts reuse the recorded port so existing clients reconnect
// to the same address.
func startNode(t *testing.T, bin, dir string, extra ...string) *nodeProc {
	t.Helper()
	listen := "127.0.0.1:0"
	portFile := dir + ".port"
	if b, err := os.ReadFile(portFile); err == nil {
		listen = strings.TrimSpace(string(b))
	}
	args := append([]string{"-listen", listen, "-data", dir, "-wal-sync", "0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "dcdbnode: serving "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		if err := os.WriteFile(portFile, []byte(addr), 0o644); err != nil {
			t.Fatal(err)
		}
		return &nodeProc{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("dcdbnode never reported its address")
		return nil
	}
}

// kill SIGKILLs the node — no shutdown path runs.
func (p *nodeProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	p.cmd.Wait()
}

// stop terminates the node gracefully (idempotent with kill).
func (p *nodeProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	p.cmd.Wait()
}

// TestChaosKillMidStreamProcesses runs three real dcdbnode processes
// and SIGKILLs replicas in the middle of live query streams — first a
// non-essential replica during a QUORUM merge, then (after restarting
// it) the replica actually serving a ONE-level stream. Contract: both
// streams finish with a reading sequence byte-identical to the
// unfaulted run, and a killed node restarts on its directory into the
// same cluster.
func TestChaosKillMidStreamProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dcdbnode processes")
	}
	inj := faults.New(seed())
	logSeed(t, inj)

	work := t.TempDir()
	bin := filepath.Join(work, "dcdbnode")
	if out, err := exec.Command("go", "build", "-o", bin, "dcdb/cmd/dcdbnode").CombinedOutput(); err != nil {
		t.Fatalf("building dcdbnode: %v\n%s", err, out)
	}
	procs := make([]*nodeProc, 3)
	dirs := make([]string, 3)
	for i := range procs {
		dirs[i] = filepath.Join(work, fmt.Sprintf("node%d", i))
		procs[i] = startNode(t, bin, dirs[i])
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.stop()
		}
	})
	addrs := make([]string, len(procs))
	for i, p := range procs {
		addrs[i] = p.addr
	}

	clients := func() []store.NodeBackend {
		backends := make([]store.NodeBackend, len(addrs))
		for i, a := range addrs {
			backends[i] = rpc.NewClient(a, rpc.ClientOptions{
				DialTimeout:      time.Second,
				CallTimeout:      5 * time.Second,
				ReconnectBackoff: 10 * time.Millisecond,
				MaxBackoff:       100 * time.Millisecond,
			})
		}
		return backends
	}
	part := store.RingPartitioner{Depth: 4}
	clusterQ, err := store.NewClusterOptions(clients(), store.ClusterOptions{
		Partitioner: part, Replication: 3,
		WriteConsistency: store.ConsistencyQuorum,
		ReadConsistency:  store.ConsistencyQuorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clusterQ.Close()
	clusterOne, err := store.NewClusterOptions(clients(), store.ClusterOptions{
		Partitioner: part, Replication: 3,
		ReadConsistency: store.ConsistencyOne,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clusterOne.Close()

	// Seed enough data that a stream spans many chunks; writes at
	// QUORUM with rf=3 fan out to every node, so all replicas hold an
	// identical sequence before any process dies.
	id := sid(70, 70)
	total := 6*store.StreamChunkReadings + 1234
	batch := make([]core.Reading, 0, 2048)
	for ts := 0; ts < total; ts++ {
		batch = append(batch, core.Reading{Timestamp: int64(ts + 1), Value: float64(ts)})
		if len(batch) == cap(batch) || ts == total-1 {
			if err := clusterQ.InsertBatch(id, batch, 0); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	st, err := clusterQ.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, st) // unfaulted reference
	if len(want) != total {
		t.Fatalf("reference drain returned %d of %d readings", len(want), total)
	}

	restart := func(i int) {
		procs[i] = startNode(t, bin, dirs[i])
		if procs[i].addr != addrs[i] {
			t.Fatalf("node %d restarted on %s, expected %s", i, procs[i].addr, addrs[i])
		}
	}
	drainChunks := func(st store.ReadingStream, n int) []core.Reading {
		t.Helper()
		var got []core.Reading
		for i := 0; i < n; i++ {
			rs, err := st.Next()
			if err != nil {
				t.Fatalf("chunk %d before the kill: %v", i, err)
			}
			got = append(got, rs...)
		}
		return got
	}

	// QUORUM: SIGKILL one replica two chunks into the merge. The
	// coordinator must finish from the surviving majority with the
	// byte-identical sequence.
	victim := inj.DeriveRand("victim").Intn(len(procs))
	st, err = clusterQ.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	got := drainChunks(st, 2)
	procs[victim].kill()
	got = append(got, drain(t, st)...)
	requireEqual(t, "QUORUM stream with a replica SIGKILLed mid-stream", got, want)
	restart(victim)

	// ONE: SIGKILL the replica actually serving the stream (the
	// primary — every replica is up at open). The failover must resume
	// on a surviving replica with no gap and no repeat.
	primary := slices.Index(addrs, clusterOne.Owners(id)[0])
	st, err = clusterOne.QueryStream(id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	got = drainChunks(st, 2)
	procs[primary].kill()
	got = append(got, drain(t, st)...)
	requireEqual(t, "ONE stream with its serving replica SIGKILLed", got, want)
	restart(primary)

	// The restarted primary recovered its directory: a direct ONE read
	// through it still serves (sanity that restarts rejoin, not just
	// that survivors carry the suite).
	rs, err := clusterOne.Query(id, 1, 10)
	if err != nil || len(rs) != 10 {
		t.Fatalf("post-restart read: %d readings, err %v", len(rs), err)
	}
}
