package rpc

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dcdb/internal/core"
)

// Kill-the-node-process variant of the recovery suite: a real dcdbnode
// process (not an in-process crash simulation) is SIGKILLed mid-ingest
// and restarted on its data directory; every write it acknowledged
// over RPC must be served again.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// dcdbnodeBinary builds cmd/dcdbnode once per test run.
func dcdbnodeBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dcdbnode-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "dcdbnode")
		cmd := exec.Command("go", "build", "-o", buildBin, "dcdb/cmd/dcdbnode")
		cmd.Dir = moduleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("go build: %s", out)
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build dcdbnode (no toolchain?): %v", buildErr)
	}
	return buildBin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/rpc -> repo root
}

// nodeProc is one running dcdbnode process.
type nodeProc struct {
	cmd  *exec.Cmd
	addr string
}

// startNodeProc launches dcdbnode on dir and waits for its "serving"
// line.
func startNodeProc(t *testing.T, bin, dir string) *nodeProc {
	t.Helper()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-data", dir, "-wal-sync", "0")
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
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "dcdbnode: serving "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &nodeProc{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("dcdbnode never reported its address")
		return nil
	}
}

// kill SIGKILLs the process — no shutdown hooks, no WAL close.
func (p *nodeProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

func TestKillNodeProcessRecoversAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := dcdbnodeBinary(t)
	dir := t.TempDir()

	proc := startNodeProc(t, bin, dir)
	cl := NewClient(proc.addr, ClientOptions{
		ReconnectBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	defer cl.Close()

	// Ingest until the kill: every insert the node acknowledged (-wal-
	// sync 0: fsynced before the RPC response) must survive.
	id := core.SensorID{Hi: 42, Lo: 42}
	acked := 0
	for i := 0; i < 500; i++ {
		if err := cl.InsertBatch(id, []core.Reading{{Timestamp: int64(i), Value: float64(i)}}, 0); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		acked++
		if i == 250 {
			proc.kill(t)
			break
		}
	}
	// Post-kill writes must fail, not silently vanish.
	if err := cl.InsertBatch(id, []core.Reading{{Timestamp: 9999, Value: 1}}, 0); err == nil {
		t.Fatal("insert into a SIGKILLed node succeeded")
	}

	proc2 := startNodeProc(t, bin, dir)
	defer proc2.kill(t)
	cl2 := NewClient(proc2.addr, ClientOptions{})
	defer cl2.Close()
	rs, err := cl2.Query(id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != acked {
		t.Fatalf("recovered %d readings, want the %d acked before SIGKILL (zero lost acknowledged writes)", len(rs), acked)
	}
	for i, r := range rs {
		if r.Timestamp != int64(i) || r.Value != float64(i) {
			t.Fatalf("reading %d corrupted: %+v", i, r)
		}
	}
}
