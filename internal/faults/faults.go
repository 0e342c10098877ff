// Package faults is a deterministic, seed-driven fault-injection layer
// for the cluster's I/O seams. One Injector carries a seed and a set of
// rules; the seams it plugs into are the ones the production code
// already exposes:
//
//   - rpc dialing and connection traffic, via Dial / WrapConn — drop,
//     delay, stall, byte-corrupt, and asymmetric partitions (sever one
//     direction by matching only ConnWrite or only ConnRead);
//   - store disk writes, via FS wrapping fsutil.Disk — slow writes,
//     ENOSPC, torn fsync (write succeeds, sync fails), failed or slow
//     directory fsyncs;
//   - deadline clocks, via Now / SetSkew — clock skew between a
//     coordinator and its nodes.
//
// Determinism contract: every probabilistic draw comes from the
// injector's seeded generator, and scenario schedules should derive
// all their shape (timings, victims, toggles) from DeriveRand streams.
// Re-running with the same seed replays the same fault plan; goroutine
// interleaving still varies, so scenarios assert invariants (contracts
// hold, acked writes survive), not exact event orders.
package faults

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/fsutil"
)

// ErrInjected is the default error a firing rule returns. Connection
// wrappers translate it into a severed conn; everything else surfaces
// it as-is so tests can errors.Is for it.
var ErrInjected = errors.New("faults: injected fault")

// Op is the class of I/O operation a rule intercepts. Rules carry a
// bitmask, so one rule can cover e.g. Dial|ConnWrite (an asymmetric
// outbound partition: cannot reach the peer, but bytes already in
// flight from it still arrive).
type Op uint

const (
	// Dial is a new outbound connection attempt (target = address).
	Dial Op = 1 << iota
	// ConnRead is bytes arriving on a wrapped connection.
	ConnRead
	// ConnWrite is bytes leaving on a wrapped connection.
	ConnWrite
	// FSWrite is a write to a wrapped file (target = path).
	FSWrite
	// FSSync is an fsync of a wrapped file.
	FSSync
	// FSOpen is opening/creating a file through a wrapped FS.
	FSOpen
	// FSSyncDir is an fsync of a directory through a wrapped FS
	// (target = the directory's path).
	FSSyncDir
)

// Rule is one fault: which ops it matches and what it does to them.
// Fields are read-only after AddRule; toggling happens through
// Enable/Disable. A zero Prob fires on every matching op.
type Rule struct {
	// Ops is the bitmask of operation classes the rule intercepts.
	Ops Op
	// Match is a substring of the op's target — the remote address for
	// network ops, the file path for FS ops. Empty matches everything,
	// which is how a rule targets "this node's disk" (its directory) or
	// "that replica" (its port) in a multi-node in-process test.
	Match string
	// Prob fires the rule on a matching op with this probability
	// (seeded draw); 0 means always.
	Prob float64
	// After skips the first N matching ops — "the 3rd write fails".
	After int64
	// Count limits how often the rule fires; 0 is unlimited.
	Count int64
	// Delay is added latency before the op proceeds (or before Err is
	// returned): slow disks, slow links, stalls.
	Delay time.Duration
	// Corrupt flips one byte of the payload (network reads/writes
	// only); the op then proceeds, exercising checksum paths.
	Corrupt bool
	// Err aborts the op with this error; nil with Corrupt/Delay set
	// lets the op proceed after the effect. A rule with neither Err,
	// Corrupt, nor Delay counts hits only (a probe).
	Err error

	in       *Injector
	disabled atomic.Bool
	hits     atomic.Int64 // matching ops seen
	fired    atomic.Int64 // times the effect applied
}

// Enable re-arms the rule.
func (r *Rule) Enable() { r.disabled.Store(false) }

// Disable stops the rule from matching; counters are kept.
func (r *Rule) Disable() { r.disabled.Store(true) }

// Hits reports how many ops matched the rule (fired or not).
func (r *Rule) Hits() int64 { return r.hits.Load() }

// Fired reports how many times the rule's effect applied.
func (r *Rule) Fired() int64 { return r.fired.Load() }

// Injector is the root of one fault plan. Safe for concurrent use.
type Injector struct {
	seed  int64
	mu    sync.Mutex
	rng   *rand.Rand
	rmu   sync.RWMutex
	rules []*Rule
	skew  atomic.Int64 // ns added to Now
}

// New builds an injector whose probabilistic draws derive from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the injector's seed, for failure reports.
func (in *Injector) Seed() int64 { return in.seed }

// AddRule installs a rule and returns it for Enable/Disable toggling.
func (in *Injector) AddRule(r *Rule) *Rule {
	r.in = in
	in.rmu.Lock()
	in.rules = append(in.rules, r)
	in.rmu.Unlock()
	return r
}

// DeriveRand returns a generator seeded from the injector seed and a
// label, so independent parts of a scenario (victim choice, toggle
// timings, workload shape) draw from stable streams that do not
// perturb each other when one part adds a draw.
func (in *Injector) DeriveRand(label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))
}

// float64 draws from the shared seeded stream.
func (in *Injector) float64() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// intn draws from the shared seeded stream.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// apply runs every matching rule against one op. payload is the bytes
// in flight (nil when the op carries none); a Corrupt rule mutates it
// in place. The first rule returning an error aborts the op.
func (in *Injector) apply(op Op, target string, payload []byte) error {
	in.rmu.RLock()
	rules := in.rules
	in.rmu.RUnlock()
	for _, r := range rules {
		if r.Ops&op == 0 || r.disabled.Load() {
			continue
		}
		if r.Match != "" && !strings.Contains(target, r.Match) {
			continue
		}
		hit := r.hits.Add(1)
		if hit <= r.After {
			continue
		}
		if r.Prob > 0 && in.float64() >= r.Prob {
			continue
		}
		if r.Count > 0 {
			if f := r.fired.Add(1); f > r.Count {
				r.fired.Add(-1)
				continue
			}
		} else {
			r.fired.Add(1)
		}
		if r.Delay > 0 {
			time.Sleep(r.Delay)
		}
		if r.Corrupt && len(payload) > 0 {
			payload[in.intn(len(payload))] ^= 0xFF
		}
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// --- Clock skew ---

// SetSkew makes Now report wall time shifted by d — a skewed node.
func (in *Injector) SetSkew(d time.Duration) { in.skew.Store(int64(d)) }

// Now is a drop-in clock hook: wall time plus the configured skew.
func (in *Injector) Now() time.Time { return time.Now().Add(time.Duration(in.skew.Load())) }

// --- Network ---

// Dial matches the rpc client's dial hook: it applies Dial rules for
// the address, then wraps the resulting TCP connection so traffic
// rules apply for its lifetime.
func (in *Injector) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if err := in.apply(Dial, addr, nil); err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return in.WrapConn(c), nil
}

// WrapConn interposes the injector on a connection's Read/Write. The
// rule target is the remote address.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, in: in, target: c.RemoteAddr().String()}
}

type faultConn struct {
	net.Conn
	in     *Injector
	target string
}

func (fc *faultConn) Read(p []byte) (int, error) {
	n, err := fc.Conn.Read(p)
	if err != nil {
		return n, err
	}
	// Applied after the read so Corrupt touches real bytes; an Err rule
	// severs the conn so the peerless bytes can't half-arrive.
	if ferr := fc.in.apply(ConnRead, fc.target, p[:n]); ferr != nil {
		fc.Conn.Close()
		return 0, ferr
	}
	return n, nil
}

func (fc *faultConn) Write(p []byte) (int, error) {
	if err := fc.in.apply(ConnWrite, fc.target, nil); err != nil {
		fc.Conn.Close()
		return 0, err
	}
	return fc.Conn.Write(p)
}

// --- Filesystem ---

// FS wraps fsutil.Disk-compatible filesystems so FSOpen/FSWrite/FSSync
// rules apply to files whose path matches, and FSSyncDir rules to
// directory fsyncs. Install with
// fsutil.Disk = injector.FS(fsutil.OSFS{}) and restore after the test.
func (in *Injector) FS(base fsutil.FS) fsutil.FS {
	return &faultFS{in: in, base: base}
}

type faultFS struct {
	in   *Injector
	base fsutil.FS
}

func (fs *faultFS) Create(name string) (fsutil.File, error) {
	if err := fs.in.apply(FSOpen, name, nil); err != nil {
		return nil, err
	}
	f, err := fs.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: fs.in, path: name}, nil
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	if err := fs.in.apply(FSOpen, name, nil); err != nil {
		return nil, err
	}
	f, err := fs.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: fs.in, path: name}, nil
}

func (fs *faultFS) CreateTemp(dir, pattern string) (fsutil.File, error) {
	if err := fs.in.apply(FSOpen, dir, nil); err != nil {
		return nil, err
	}
	f, err := fs.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: fs.in, path: f.Name()}, nil
}

func (fs *faultFS) SyncDir(dir string) error {
	if err := fs.in.apply(FSSyncDir, dir, nil); err != nil {
		return err
	}
	return fs.base.SyncDir(dir)
}

type faultFile struct {
	fsutil.File
	in   *Injector
	path string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.in.apply(FSWrite, f.path, nil); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.in.apply(FSSync, f.path, nil); err != nil {
		return err
	}
	return f.File.Sync()
}
