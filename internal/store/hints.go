package store

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/backoff"
	"dcdb/internal/core"
	"dcdb/internal/fsutil"
)

// Hinted handoff: when a replica misses a write that the rest of its
// set acknowledged, the coordinator durably queues the mutation under
// <hintDir>/<memberID>/hint-<seq>.log and replays it once the replica
// answers pings again — so a node that was down (or is being replaced
// behind the same address) converges without a full re-replication.
//
// The queue is keyed by member IDENTITY, not ring position: a
// membership change that renumbers or reorders the ring can never
// deliver a hint to the wrong node. When the member a hint is queued
// for is NOT on the ring (dead, departed, or queued by an earlier
// coordinator that named a remote member node<i>), the replay loop
// forwards the hint instead: the mutation is re-coordinated through
// the sensor's current owners with its original write version, so the
// data that member missed reaches whoever owns the range now.
//
// Hint files are WAL records exactly: a missed insert is queued as the
// type-4 record a node logs for it — the write entry as the write frame
// carried it, its expiry already absolute and its coordinator-assigned
// version stamped once — and a missed delete as type 2. Replay hands a
// member each record's entries through the member's frame writer, the
// one the write path uses; a departed member's entries are
// re-coordinated one by one. Replay is at-least-once — a replay
// interrupted mid-file re-applies the whole file on the next attempt;
// duplicates collapse at the replica's query-time dedup.
//
// Version-resolution contract: every coordinated write is stamped with
// one monotonic version (Cluster.nextVersion), the hint records it,
// and replay re-delivers it unchanged. Query-time
// dedup resolves duplicate timestamps highest-version-wins, so a
// replayed hint lands exactly where the original write would have: if
// the sensor's value at that timestamp was rewritten (a strictly later
// version) between the hint being queued and replayed, the rewrite
// keeps winning and the replay is a harmless no-op at read time. The
// pre-version resurrection window — replay reinstating an older value
// that read repair then spread — is closed; background anti-entropy
// (antientropy.go) additionally converges replicas that diverged with
// no read traffic at all. A hint file holding a record this build
// cannot read — types 1 and 3, the insert records of older builds,
// among them — fails its member's replay by name and is kept
// (errWALRecordUnreadable).

// hintFileMax rotates the per-member append file so one outage does
// not grow a single unbounded segment; replay deletes whole files as
// they are delivered.
const hintFileMax = 4 << 20

// hintQueue is a Cluster's durable per-member hint store.
type hintQueue struct {
	dir      string
	mu       sync.Mutex // guards members (the map, not each entry)
	members  map[string]*nodeHints
	queued   atomic.Int64 // mutations queued (lifetime)
	replayed atomic.Int64 // mutations delivered (lifetime)
}

// nodeHints is the hint state of one member identity. mu serialises
// enqueue against replay; has is a lock-free "anything pending?" check
// so the replay loop's idle tick stays free.
type nodeHints struct {
	mu   sync.Mutex
	dir  string
	seq  uint64
	f    fsutil.File
	size int64
	has  atomic.Bool
}

// escapeHintID maps a member ID to a safe directory name, reversibly:
// bytes outside [A-Za-z0-9._-] (and '%' itself) become %XX. Legacy IDs
// ("node0") pass through unchanged, preserving pre-membership layouts.
func escapeHintID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		ch := id[i]
		if ch != '%' && (ch == '.' || ch == '_' || ch == '-' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')) {
			b.WriteByte(ch)
			continue
		}
		fmt.Fprintf(&b, "%%%02X", ch)
	}
	return b.String()
}

// unescapeHintID reverses escapeHintID; malformed escapes are kept
// literally (the name then simply names itself).
func unescapeHintID(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if name[i] == '%' && i+2 < len(name) {
			if v, err := strconv.ParseUint(name[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(name[i])
	}
	return b.String()
}

// openHintQueue scans (creating on first use) the hint directory,
// recovering per-member hints a previous coordinator run left behind —
// including hints for members no longer in the cluster, which the
// replay loop will forward to the current owners.
func openHintQueue(dir string) (*hintQueue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	q := &hintQueue{dir: dir, members: make(map[string]*nodeHints)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		id := unescapeHintID(de.Name())
		nh := &nodeHints{dir: filepath.Join(dir, de.Name())}
		segs, err := findSegments(nh.dir, "hint-")
		if err != nil {
			return nil, err
		}
		if len(segs) > 0 {
			nh.seq = segs[len(segs)-1].seq + 1
			nh.has.Store(true)
		}
		q.members[id] = nh
	}
	return q, nil
}

// forID returns (creating when asked) the hint state of one member.
func (q *hintQueue) forID(id string, create bool) (*nodeHints, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if nh, ok := q.members[id]; ok {
		return nh, nil
	}
	if !create {
		return nil, nil
	}
	nh := &nodeHints{dir: filepath.Join(q.dir, escapeHintID(id))}
	if err := os.MkdirAll(nh.dir, 0o755); err != nil {
		return nil, err
	}
	q.members[id] = nh
	return nh, nil
}

// ids snapshots the member identities with hint state.
func (q *hintQueue) ids() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.members))
	for id := range q.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// enqueue durably appends n framed records, a mutation each, for a
// member. The hint is fsynced before enqueue returns: a coordinator
// crash cannot silently drop a handoff it decided to make.
func (q *hintQueue) enqueue(id string, recs []byte, n int) error {
	nh, err := q.forID(id, true)
	if err != nil {
		return err
	}
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if nh.f == nil || nh.size >= hintFileMax {
		if nh.f != nil {
			nh.f.Close()
		}
		path := filepath.Join(nh.dir, fmt.Sprintf("hint-%016x.log", nh.seq))
		nh.seq++
		f, err := fsutil.Disk.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			nh.f = nil
			return err
		}
		nh.f = f
		nh.size = 0
	}
	if _, err := nh.f.Write(recs); err != nil {
		nh.f.Close()
		nh.f = nil // a torn frame ends the file; rotate to a fresh one
		return err
	}
	if err := nh.f.Sync(); err != nil {
		nh.f.Close()
		nh.f = nil
		return err
	}
	nh.size += int64(len(recs))
	nh.has.Store(true)
	q.queued.Add(int64(n))
	return nil
}

// replay delivers every queued hint of one member, deleting hint files
// as they complete: each insert record's entries go to write — less
// those that expired while queued — and each delete to del. On failure
// the current file is kept and the next attempt re-applies it from the
// start (at-least-once).
func (q *hintQueue) replay(id string, write func([]WriteEntry) error, del func(core.SensorID, int64) error) error {
	nh, err := q.forID(id, false)
	if err != nil || nh == nil {
		return err
	}
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if nh.f != nil {
		// Freeze the file set: concurrent enqueues open a fresh file.
		nh.f.Close()
		nh.f = nil
	}
	segs, err := findSegments(nh.dir, "hint-")
	if err != nil {
		return err
	}
	for _, seg := range segs {
		// A torn tail is a crash mid-enqueue: the write behind it was
		// never recorded as hinted, so dropping it is correct. A record
		// this build cannot read keeps the file, none of it applied.
		ops, err := readLog(seg.path, "hint file", false)
		if err != nil {
			return err
		}
		for _, op := range ops {
			if op.del {
				if err := del(op.id, op.cutoff); err != nil {
					return err
				}
				q.replayed.Add(1)
				continue
			}
			now := time.Now().UnixNano()
			live := op.entries[:0]
			for _, e := range op.entries {
				if e.Expire == 0 || e.Expire > now {
					live = append(live, e)
				}
			}
			if len(live) == 0 {
				continue // every hinted reading already expired
			}
			if err := write(live); err != nil {
				return err
			}
			q.replayed.Add(1)
		}
		if err := os.Remove(seg.path); err != nil {
			return err
		}
	}
	nh.has.Store(false)
	return nil
}

// pending reports how many members still have queued hints.
func (q *hintQueue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, nh := range q.members {
		if nh.has.Load() {
			n++
		}
	}
	return n
}

// has reports whether one member has queued hints.
func (q *hintQueue) has(id string) bool {
	q.mu.Lock()
	nh := q.members[id]
	q.mu.Unlock()
	return nh != nil && nh.has.Load()
}

// close releases the open append files; queued hints stay on disk for
// the next coordinator run.
func (q *hintQueue) close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	var firstErr error
	for _, nh := range q.members {
		nh.mu.Lock()
		if nh.f != nil {
			if err := nh.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			nh.f = nil
		}
		nh.mu.Unlock()
	}
	return firstErr
}

// --- Cluster-side plumbing ---

// hintInsert queues an entry as the type-4 record a node logs for it,
// cut like the WAL's so replay never sees an oversized one. The entry
// keeps the write version the failed fan-out carried, so replay cannot
// outrank a later rewrite.
func (c *Cluster) hintInsert(id string, e WriteEntry) {
	recs, n := appendWALInserts(nil, []WriteEntry{e})
	c.hint(id, recs, n)
}

// hintDelete queues a delete hint.
func (c *Cluster) hintDelete(id string, sid core.SensorID, cutoff int64) {
	var rec [walFrameHeader + 25]byte
	putWALFrameHeader(rec[:], encodeWALDelete(rec[walFrameHeader:walFrameHeader], sid, cutoff))
	c.hint(id, rec[:], 1)
}

// hint queues n records for a member. One that cannot be queued is
// lost — counted and logged; the write it belongs to still stands on
// the replicas that took it, and anti-entropy is left to repair the
// member.
func (c *Cluster) hint(id string, recs []byte, n int) {
	if err := c.hints.enqueue(id, recs, n); err != nil {
		c.met.hintsLost.Add(int64(n))
		log.Printf("store: hint for member %s lost: %v", id, err)
	}
}

// errMemberDown marks a delivery attempt that found its member not
// answering pings: the hints stay queued for a later attempt.
var errMemberDown = errors.New("store: member does not answer; its hints stay queued")

// deliverHints makes one delivery attempt for one member's queue. A
// member in the topology that answers pings gets each record's entries
// through its frame writer, the one the write path uses; one that does
// not answer fails the attempt with errMemberDown. A member that left
// the ring has its entries re-coordinated through the current owners
// once the cutover is done: each is begun and waited for under its
// original stamp, so a forward resolves exactly where the original
// write would have, and an owner that misses it is hinted in turn. A
// forward is not a client's write and leaves the write counters alone.
// Returns (attempted, error).
func (c *Cluster) deliverHints(t *topology, id string) (bool, error) {
	if idx, ok := t.byID[id]; ok {
		m := &t.members[idx]
		if err := m.backend.Ping(); err != nil {
			return true, fmt.Errorf("%w: %w", errMemberDown, err)
		}
		return true, c.hints.replay(id, m.queue.fw.WriteFrame, m.backend.DeleteBefore)
	}
	if t.prevRing != nil {
		// Mid-transition the departed member's ranges are still moving;
		// wait for the cutover so forwards resolve against final owners.
		return false, nil
	}
	return true, c.hints.replay(id, func(es []WriteEntry) error {
		for _, e := range es {
			if err := c.begin(e).wait(); err != nil {
				return err
			}
		}
		return nil
	}, c.DeleteBefore)
}

// hintLoop probes members with queued hints and delivers when they
// answer (or forwards when they left). Each member backs off
// independently (shared jittered policy): a node that stays down is
// probed at a decaying cadence instead of every tick, and a failed
// replay does not delay another member's delivery.
func (c *Cluster) hintLoop(interval time.Duration) {
	defer c.bgWG.Done()
	pol := backoff.Policy{Initial: interval, Max: 16 * interval, Multiplier: 2, Jitter: 0.25}
	fails := make(map[string]int)
	retryAt := make(map[string]time.Time)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopBG:
			return
		case <-t.C:
			now := time.Now()
			top := c.top()
			for _, id := range c.hints.ids() {
				if !c.hints.has(id) || now.Before(retryAt[id]) {
					continue
				}
				attempted, err := c.deliverHints(top, id)
				if !attempted {
					continue
				}
				if err != nil {
					// A member that is down is the normal wait; anything else
					// — a failed forward, a hint file this build refuses —
					// needs an operator.
					if !errors.Is(err, errMemberDown) {
						log.Printf("store: delivering hints of member %s: %v", id, err)
					}
					fails[id]++
					retryAt[id] = now.Add(pol.Delay(fails[id]))
					continue
				}
				delete(fails, id)
				delete(retryAt, id)
			}
		}
	}
}

// ReplayHints makes one synchronous delivery attempt (deliverHints) for
// every member with queued hints: replicas that answer pings get their
// replay, departed members get their queue forwarded to the current
// owners, and a member still down keeps its hints without failing the
// call. The background loop makes the same attempts on a timer; tests
// and operators may call it directly.
func (c *Cluster) ReplayHints() error {
	if c.hints == nil {
		return nil
	}
	t := c.top()
	var firstErr error
	for _, id := range c.hints.ids() {
		if !c.hints.has(id) {
			continue
		}
		if _, err := c.deliverHints(t, id); err != nil && !errors.Is(err, errMemberDown) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// HintStats reports hinted-handoff counters: mutations queued and
// delivered over the cluster's lifetime, and how many members still
// have hints waiting. Zero values when handoff is disabled.
func (c *Cluster) HintStats() (queued, replayed int64, pendingNodes int) {
	if c.hints == nil {
		return 0, 0, 0
	}
	return c.hints.queued.Load(), c.hints.replayed.Load(), c.hints.pending()
}
