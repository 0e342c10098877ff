package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/ring"
)

// RingPartitioner configures the one placement scheme: a sensor's
// placement key hashes onto a consistent-hash ring of member identities
// with VNodes virtual nodes per member (internal/ring), so membership
// changes move only the ranges the joining/leaving member owns and
// every coordinator holding the same member set and the same
// RingPartitioner derives identical placement without coordination.
type RingPartitioner struct {
	// VNodes is the virtual-node count per member; <= 0 selects
	// ring.DefaultVNodes.
	VNodes int
	// Depth is the number of hierarchy levels forming the placement key
	// (e.g. 4 = room/system/rack/chassis): all sensors sharing that SID
	// prefix land on one replica set, so a sub-tree of the sensor
	// hierarchy maps to one database server (paper §4.3). 0 hashes the
	// full SID — ideal ingest balance, no locality.
	Depth int
}

// placementKey is the only code that knows what a sensor hashes to.
func (c *Cluster) placementKey(id core.SensorID) uint64 {
	if c.depth > 0 {
		id = id.Prefix(c.depth)
	}
	return fnvSID(id)
}

func fnvSID(id core.SensorID) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (id.Hi >> uint(shift) & 0xff)) * prime
	}
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (id.Lo >> uint(shift) & 0xff)) * prime
	}
	// FNV's low bits disperse poorly when taken modulo small node
	// counts (byte contributions can cancel); finish with a
	// murmur-style avalanche so every input bit reaches every output
	// bit.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ClusterOptions configure a Cluster beyond its member set.
type ClusterOptions struct {
	// Partitioner configures placement; the zero value is the ring at
	// its default virtual-node count keyed on the full SID.
	Partitioner RingPartitioner
	// Replication is the total number of copies of each row (1 = no
	// redundancy); a sensor never has more copies than the ring has
	// members.
	Replication int
	// WriteConsistency is the number of replicas that must acknowledge
	// a write (zero value = ConsistencyOne).
	WriteConsistency Consistency
	// ReadConsistency is the number of replicas a read must reach
	// (zero value = ConsistencyOne). At QUORUM, reads merge the replica
	// responses, settle disagreements by write version and repair the
	// lagging replicas in the background.
	ReadConsistency Consistency
	// HintDir, when set, enables hinted handoff: a write a replica
	// missed (while the rest met the consistency level) is durably
	// queued under this directory and replayed once the replica
	// answers pings again. Empty disables handoff.
	HintDir string
	// HintReplayInterval is the cadence of the background replayer
	// probing down replicas. 0 selects the default (1s); < 0 disables
	// the background loop (ReplayHints still works when called).
	HintReplayInterval time.Duration
	// AntiEntropyInterval is the cadence of the background repair
	// scheduler: every tick the coordinator compares per-sensor replica
	// summaries and merges the replicas that diverged, re-inserting the
	// winning versions where they lack them — convergence without any
	// read traffic. 0 disables the loop (RepairRound still works when
	// called directly).
	AntiEntropyInterval time.Duration
	// BackendFactory builds the backend for a member SetMembers adds
	// (typically an rpc.NewClient on the member's address). A cluster
	// whose member set never changes does not need one.
	BackendFactory func(id, addr string) NodeBackend
	// RebalanceThrottle is the pause between sensors during a
	// background rebalance — the knob that keeps the copy stream below
	// ingest traffic. 0 selects a small default; < 0 disables
	// throttling.
	RebalanceThrottle time.Duration
}

// Cluster composes storage backends into one logical Storage Backend
// with replication, tunable consistency and hinted handoff, mirroring a
// multi-server Cassandra cluster (paper §4.3). Backends may be
// in-process (*Node) or remote (rpc.Client), mixed freely. The member
// set lives in an atomically swapped topology snapshot (topology.go),
// so a cluster can grow and shrink live via SetMembers.
type Cluster struct {
	topo        atomic.Pointer[topology]
	topoMu      sync.Mutex // serialises SetMembers / cutover
	depth       int        // placement-key depth, see placementKey
	replication int
	writeCL     Consistency
	readCL      Consistency
	factory     func(id, addr string) NodeBackend
	rebThrottle time.Duration

	hints  *hintQueue
	met    *clusterMetrics
	stopBG chan struct{}
	bgWG   sync.WaitGroup

	// Rebalance state: gen invalidates a superseded transfer, rebWG
	// joins the background goroutine at Close.
	rebGen atomic.Uint64
	rebWG  sync.WaitGroup

	// retired holds backends of departed members until Close: in-flight
	// operations may still resolve snapshots that point at them.
	retiredMu sync.Mutex
	retired   []NodeBackend

	// ver is the coordinator's write-version clock: an HLC-style
	// counter seeded from the wall clock and bumped per logical write,
	// so versions are monotonic within a coordinator and (clock skew
	// aside) ordered across coordinator restarts without persisting
	// anything (nextVersion). Version 0 is reserved for unstamped
	// writes (a node's own InsertBatch).
	ver atomic.Uint64

	// writeWG tracks the running write-queue flushers so Close drains
	// every queued entry before it closes the backends under them.
	writeWG sync.WaitGroup

	// repairWG tracks in-flight background read repairs so Close does
	// not yank backends out from under them.
	repairWG sync.WaitGroup
	closed   atomic.Bool
}

// NewCluster builds a cluster of in-process nodes with consistency
// level ONE and no hinted handoff — the embedded configuration.
func NewCluster(nodes []*Node, part RingPartitioner, replication int) (*Cluster, error) {
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	return NewClusterOptions(backends, ClusterOptions{Partitioner: part, Replication: replication})
}

// NewClusterOptions builds a cluster of arbitrary backends (local
// nodes, RPC clients, or a mix). A member's identity on the ring is
// its backend's address when it has one — so a coordinator handed an
// address list and one that discovered the same nodes through gossip
// derive identical placement — and node<i>, by construction order, for
// an in-process node.
func NewClusterOptions(backends []NodeBackend, o ClusterOptions) (*Cluster, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("store: cluster needs at least one node")
	}
	members := make([]member, len(backends))
	seen := make(map[string]struct{}, len(backends))
	for i, b := range backends {
		m := member{id: fmt.Sprintf("node%d", i), backend: b}
		if a, ok := b.(interface{ Addr() string }); ok && a.Addr() != "" {
			m.id, m.addr = a.Addr(), a.Addr()
		}
		if _, dup := seen[m.id]; dup {
			return nil, fmt.Errorf("store: member %s listed twice", m.id)
		}
		seen[m.id] = struct{}{}
		members[i] = m
	}
	return newCluster(members, o)
}

// NewClusterMembers builds a cluster from member identities (as gossip
// discovery reports them); backends are built with o.BackendFactory.
func NewClusterMembers(ms []MemberInfo, o ClusterOptions) (*Cluster, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("store: cluster needs at least one member")
	}
	if o.BackendFactory == nil {
		return nil, fmt.Errorf("store: NewClusterMembers needs a BackendFactory")
	}
	members := make([]member, 0, len(ms))
	seen := make(map[string]struct{}, len(ms))
	for _, m := range ms {
		if m.ID == "" {
			return nil, fmt.Errorf("store: member with empty ID")
		}
		if _, dup := seen[m.ID]; dup {
			continue
		}
		seen[m.ID] = struct{}{}
		b := o.BackendFactory(m.ID, m.Addr)
		if b == nil {
			return nil, fmt.Errorf("store: BackendFactory returned nil for member %s", m.ID)
		}
		members = append(members, member{id: m.ID, addr: m.Addr, backend: b})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	return newCluster(members, o)
}

// newCluster finishes construction: it places the members on the ring
// and starts the background loops.
func newCluster(members []member, o ClusterOptions) (*Cluster, error) {
	if o.Replication < 1 {
		o.Replication = 1
	}
	if o.WriteConsistency == 0 {
		o.WriteConsistency = ConsistencyOne
	}
	if o.ReadConsistency == 0 {
		o.ReadConsistency = ConsistencyOne
	}
	if o.RebalanceThrottle == 0 {
		o.RebalanceThrottle = 2 * time.Millisecond
	}
	c := &Cluster{
		depth:       o.Partitioner.Depth,
		replication: o.Replication,
		writeCL:     o.WriteConsistency,
		readCL:      o.ReadConsistency,
		factory:     o.BackendFactory,
		rebThrottle: o.RebalanceThrottle,
	}
	ids := make([]string, len(members))
	for i := range members {
		c.wire(&members[i])
		ids[i] = members[i].id
	}
	c.topo.Store(newTopology(members, ring.New(ids, o.Partitioner.VNodes), nil))
	c.met = newClusterMetrics(c)
	if o.HintDir != "" {
		hq, err := openHintQueue(o.HintDir)
		if err != nil {
			return nil, fmt.Errorf("store: opening hint queue: %w", err)
		}
		c.hints = hq
		if o.HintReplayInterval == 0 {
			o.HintReplayInterval = time.Second
		}
		if o.HintReplayInterval > 0 {
			c.ensureStopBG()
			c.bgWG.Add(1)
			go c.hintLoop(o.HintReplayInterval)
		}
	}
	if o.AntiEntropyInterval > 0 {
		c.ensureStopBG()
		c.bgWG.Add(1)
		go c.antiEntropyLoop(o.AntiEntropyInterval)
	}
	return c, nil
}

// ensureStopBG lazily creates the shared background-loop stop channel.
func (c *Cluster) ensureStopBG() {
	if c.stopBG == nil {
		c.stopBG = make(chan struct{})
	}
}

// Backends exposes every member backend in snapshot order.
func (c *Cluster) Backends() []NodeBackend {
	t := c.top()
	out := make([]NodeBackend, len(t.members))
	for i := range t.members {
		out[i] = t.members[i].backend
	}
	return out
}

// Owners returns the member IDs holding a sensor's replicas, primary
// first, as reads currently resolve them.
func (c *Cluster) Owners(id core.SensorID) []string {
	t := c.top()
	return t.readRing().ReplicasFor(c.placementKey(id), c.replication)
}

// fanOut runs op for every listed replica (i is its position in the
// list, idx its member index) concurrently and returns one error slot
// per replica.
func (c *Cluster) fanOut(replicas []int, op func(i, idx int) error) []error {
	errs := make([]error, len(replicas))
	if len(replicas) == 1 {
		errs[0] = op(0, replicas[0])
		return errs
	}
	var wg sync.WaitGroup
	for i, idx := range replicas {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			errs[i] = op(i, idx)
		}(i, idx)
	}
	wg.Wait()
	return errs
}

// Query implements Backend: a drain of QueryStream.
func (c *Cluster) Query(id core.SensorID, from, to int64) ([]core.Reading, error) {
	t := c.top()
	replicas := c.readReplicas(t, id)
	if c.readCL.required(len(replicas)) == 1 {
		// The one deliberate leftover of the materialised read path: at
		// ONE a drained failoverStream is exactly this loop (nothing has
		// been emitted when a replica fails, so failing over is trying
		// the next replica), and the frozen benchmark/ harness hangs its
		// rpc.query span on NodeBackend.Query (tracedNode.Query;
		// TestBenchmarkSmoke requires the span). Once the harness moves
		// the span to QueryStream this loop goes too.
		var lastErr error
		for _, idx := range replicas {
			rs, err := t.members[idx].backend.Query(id, from, to)
			if err == nil {
				c.met.readsOK.Inc()
				return rs, nil
			}
			lastErr = err
		}
		c.met.readsFailed.Inc()
		return nil, fmt.Errorf("store: all replicas failed: %w", lastErr)
	}
	st, err := c.QueryStream(id, from, to)
	if err != nil {
		return nil, err
	}
	return Drain(st)
}

// DeleteBefore implements Backend; replicas are cleaned concurrently at
// the write consistency level, with hints queued for replicas that
// missed the delete. During a rebalance the delete also reaches the
// target ring's owners, so a moved range cannot resurrect data deleted
// mid-transition.
func (c *Cluster) DeleteBefore(id core.SensorID, cutoff int64) error {
	t := c.top()
	replicas, readN := c.writeReplicas(t, id)
	errs := c.fanOut(replicas, func(_, idx int) error {
		return t.members[idx].backend.DeleteBefore(id, cutoff)
	})
	missed, err := c.quorum(errs, readN)
	if c.counted(err) != nil {
		return err
	}
	if c.hints != nil && missed > 0 {
		for i, idx := range replicas {
			if errs[i] != nil {
				c.hintDelete(t.members[idx].id, id, cutoff)
			}
		}
	}
	return nil
}

// Compact compacts every backend.
func (c *Cluster) Compact() {
	for _, m := range c.top().members {
		m.backend.Compact()
	}
}

// Flush forces every backend's memtable into sorted runs (durable nodes
// spill them to disk in the background). Backends flush concurrently —
// with remote nodes a sequential pass would serialise network round
// trips.
func (c *Cluster) Flush() error {
	return firstError(eachMember(c.top(), func(_ int, b NodeBackend) error { return b.Flush() }))
}

// eachMember runs op on every member's backend concurrently and returns
// one error slot per member, in snapshot order.
func eachMember(t *topology, op func(i int, b NodeBackend) error) []error {
	errs := make([]error, len(t.members))
	if len(t.members) == 1 {
		errs[0] = op(0, t.members[0].backend)
		return errs
	}
	var wg sync.WaitGroup
	for i := range t.members {
		wg.Add(1)
		go func(i int, b NodeBackend) {
			defer wg.Done()
			errs[i] = op(i, b)
		}(i, t.members[i].backend)
	}
	wg.Wait()
	return errs
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close implements Backend. The hint replayer, the rebalancer and
// in-flight read repairs are stopped first, then every backend —
// current and retired — is closed; the first failure is reported after
// every backend has been closed.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.stopBG != nil {
		close(c.stopBG)
		c.bgWG.Wait()
	}
	c.rebGen.Add(1) // invalidate any in-flight rebalance
	c.rebWG.Wait()
	c.repairWG.Wait()
	c.writeWG.Wait()
	var firstErr error
	for _, m := range c.top().members {
		if err := m.backend.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.retiredMu.Lock()
	retired := c.retired
	c.retired = nil
	c.retiredMu.Unlock()
	for _, b := range retired {
		if err := b.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.hints != nil {
		if err := c.hints.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SensorIDs lists every SID present on any backend, deduplicated and
// sorted: a merge of the members' sorted lists. Backends are listed
// concurrently — sequential round trips would serialize per-node
// latency (or a dead node's dial timeout) at every tool startup.
func (c *Cluster) SensorIDs() []core.SensorID {
	t := c.top()
	lists := make([][]core.SensorID, len(t.members))
	eachMember(t, func(i int, b NodeBackend) error {
		lists[i] = b.SensorIDs()
		return nil
	})
	var out []core.SensorID
	for _, ids := range lists {
		out = mergeSensorIDs(out, ids)
	}
	return out
}

// mergeSensorIDs merges two SID lists into one sorted list without
// duplicates. a is sorted; b is sorted here if a backend did not.
func mergeSensorIDs(a, b []core.SensorID) []core.SensorID {
	if !slices.IsSortedFunc(b, core.SensorID.Compare) {
		slices.SortFunc(b, core.SensorID.Compare)
	}
	out := make([]core.SensorID, 0, max(len(a), len(b)))
	for len(a) > 0 || len(b) > 0 {
		var next core.SensorID
		if len(b) == 0 || len(a) > 0 && a[0].Compare(b[0]) <= 0 {
			next, a = a[0], a[1:]
		} else {
			next, b = b[0], b[1:]
		}
		if len(out) == 0 || out[len(out)-1] != next {
			out = append(out, next)
		}
	}
	return out
}
