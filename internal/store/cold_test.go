package store

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"dcdb/internal/core"
)

// Tests for the bounded-memory engine: the block codec, the
// footer-indexed run-file format, the clock block cache, cold (evicted)
// reads, and the streaming query path. The central property: a cold
// read must be byte-identical to the hot read of the same data.

// coldOptions force eviction aggressively: a tiny cache means nearly
// every cold read misses and decodes from disk.
var coldOptions = DiskOptions{SyncInterval: 0, CacheBytes: 1 << 14}

func randomEntries(rng *rand.Rand, n int) []entry {
	es := make([]entry, n)
	ts := int64(rng.Intn(1000))
	for i := range es {
		es[i].ts = ts
		if rng.Intn(8) != 0 { // occasional duplicate timestamps
			ts += int64(rng.Intn(5000))
		}
		switch rng.Intn(4) {
		case 0:
			es[i].val = float64(rng.Intn(100)) // repeated / integral values
		case 1:
			es[i].val = es[max(0, i-1)].val // runs of identical values
		default:
			es[i].val = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
		}
		if rng.Intn(5) == 0 {
			es[i].expire = int64(rng.Intn(1 << 30))
		}
	}
	return es
}

// metaOf is the index entry the writer records for a block of es:
// count and timestamp bounds (offset, length and CRC do not reach the
// decoder).
func metaOf(es []entry) blockMeta {
	return blockMeta{count: uint32(len(es)), min: es[0].ts, max: es[len(es)-1].ts}
}

// codecRoundTrip encodes es against base and decodes it back the way a
// read does: count and timestamp bounds from the index entry, base
// version and stamp period from the file.
func codecRoundTrip(es []entry, base blockBase) (enc []byte, got []entry, err error) {
	enc, _ = encodeBlock(nil, es, base)
	err = decodeBlock(enc, metaOf(es), base, &got)
	return enc, got, err
}

func TestBlockCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]entry{
		{{ts: 0, val: 0}},
		{{ts: 5, val: 1.5}, {ts: 5, val: 2.5}, {ts: 5, val: 2.5}},
		{{ts: -100, val: math.Inf(1)}, {ts: 0, val: math.NaN()}, {ts: 100, val: -0.0}},
	}
	for i := 0; i < 50; i++ {
		cases = append(cases, randomEntries(rng, 1+rng.Intn(blockEntries)))
	}
	for ci, es := range cases {
		for _, base := range []blockBase{{tsWidth: noWidth, stampWidth: noWidth}, {}} {
			checkCodecRoundTrip(t, ci, es, base)
		}
	}
}

// checkCodecRoundTrip round-trips es against base and checks that a
// count one above the block's fails its decode. A block that takes a
// width coding at width 0 is left out of the second check: like a frame
// of width 0 it spends no bits an entry, so its bytes do not bound its
// count — the index does (TestBlockDecodeCountGuard).
func checkCodecRoundTrip(t *testing.T, ci int, es []entry, base blockBase) {
	t.Helper()
	{
		enc, got, err := codecRoundTrip(es, base)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(got) != len(es) {
			t.Fatalf("case %d: %d entries, want %d", ci, len(got), len(es))
		}
		for j := range es {
			w, g := es[j], got[j]
			if w.ts != g.ts || w.expire != g.expire ||
				math.Float64bits(w.val) != math.Float64bits(g.val) {
				t.Fatalf("case %d entry %d: got %+v want %+v", ci, j, g, w)
			}
		}
		// Wrong counts must error, not mis-decode.
		c := codingOf(enc[0])
		if c.ts == codingWidth && base.tsWidth == 0 || c.stamps == stampClockWidth && base.stampWidth == 0 {
			return
		}
		var junk []entry
		inflated := metaOf(es)
		inflated.count++
		if err := decodeBlock(enc, inflated, base, &junk); err == nil || len(junk) != 0 {
			t.Fatalf("case %d, base %+v: decode accepted an inflated count", ci, base)
		}
	}
}

func TestBlockCodecCompresses(t *testing.T) {
	// A fixed-period sensor with slowly drifting values — the paper's
	// workload — must compress far below the 24 B/entry raw encoding.
	es := make([]entry, blockEntries)
	for i := range es {
		es[i] = entry{ts: int64(i) * 1e9, val: 42 + float64(i%7)*0.25}
	}
	enc, _ := encodeBlock(nil, es, blockBase{})
	if got, raw := len(enc), 24*len(es); got*4 > raw {
		t.Fatalf("monitoring-shaped block encoded to %d bytes (raw %d); expected >4x compression", got, raw)
	}
}

func TestRunFileRoundTripAndIndex(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	series := map[core.SensorID][]entry{
		sid(1, 2): randomEntries(rng, 3*blockEntries+17),
		sid(1, 3): randomEntries(rng, 1),
		sid(9, 0): randomEntries(rng, blockEntries),
	}
	tombs := map[core.SensorID]int64{sid(1, 2): 7}
	meta, idx, err := writeRunFile(dir, 3, 9, series, tombs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.minSeq != 3 || meta.maxSeq != 9 {
		t.Fatalf("meta span [%d,%d]", meta.minSeq, meta.maxSeq)
	}
	// Full decode through the dispatching reader.
	rc, err := readRunFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	if rc.minSeq != 3 || rc.maxSeq != 9 || rc.tombs[sid(1, 2)] != 7 {
		t.Fatalf("decoded header %+v", rc)
	}
	for id, want := range series {
		got := rc.series[id]
		if len(got) != len(want) {
			t.Fatalf("series %v: %d entries, want %d", id, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].val) != math.Float64bits(want[i].val) ||
				got[i].ts != want[i].ts || got[i].expire != want[i].expire {
				t.Fatalf("series %v entry %d: got %+v want %+v", id, i, got[i], want[i])
			}
		}
	}
	// Index-only read must agree with the full decode.
	idx2, err := readRunIndexFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx2.series) != len(idx.series) || idx2.minSeq != 3 || idx2.tombs[sid(1, 2)] != 7 {
		t.Fatalf("index-only read %+v", idx2)
	}
	for i, se := range idx2.series {
		want := series[se.id]
		if se.count != uint64(len(want)) || se.min != want[0].ts || se.max != want[len(want)-1].ts {
			t.Fatalf("series %d index %+v contradicts data", i, se)
		}
		wantBlocks := (len(want) + blockEntries - 1) / blockEntries
		if len(se.blocks) != wantBlocks {
			t.Fatalf("series %v: %d blocks, want %d", se.id, len(se.blocks), wantBlocks)
		}
	}
}

// TestRunFileCorruptionRejected flips every byte of a small run file
// and requires the (index CRC + per-block CRC) layers to reject the
// damage — never panic, never serve wrong data silently.
func TestRunFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	meta, _, err := writeRunFile(dir, 1, 1, map[core.SensorID][]entry{
		sid(1, 1): randomEntries(rng, blockEntries+5),
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeRunFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off++ {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x41
		rc, err := decodeRunFile(data)
		if err != nil {
			continue
		}
		// A flip the CRCs missed may only happen in the magic-adjacent
		// bytes that are themselves validated structurally; whatever is
		// accepted must equal the original payload.
		for id, es := range want.series {
			got := rc.series[id]
			if len(got) != len(es) {
				t.Fatalf("offset %d: silent corruption (series length)", off)
			}
			for i := range es {
				if got[i] != es[i] {
					t.Fatalf("offset %d: silent corruption at entry %d", off, i)
				}
			}
		}
	}
}

// TestColdReadsMatchModel reruns the randomized merge-model property —
// inserts, flushes, deletes, compactions, crash/reopen cycles — on a
// node whose cache is tiny, so nearly every read is a cold block
// decode. The engine must agree with the reference model exactly: cold
// reads are byte-identical to what a hot node serves.
func TestColdReadsMatchModel(t *testing.T) {
	for seed := int64(200); seed < 208; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			id := sid(21, uint64(seed))
			var cur *Node
			open := func() *Node {
				n := NewNode(8 * numShards)
				if err := n.OpenOptions(dir, coldOptions); err != nil {
					t.Fatal(err)
				}
				cur = n
				return n
			}
			t.Cleanup(func() {
				if cur != nil {
					cur.Close()
				}
			})
			n := open()
			reopen := func(old *Node) *Node {
				if rng.Intn(2) == 0 {
					if err := old.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					old.crash()
				}
				return open()
			}
			mergeModelOps(t, rng, n, id, reopen)
			if cacheMetric(t, cur, "hits_total")+cacheMetric(t, cur, "misses_total") == 0 {
				t.Fatal("no block-cache traffic: the cold path was never exercised")
			}
		})
	}
}

// TestColdEqualsHotDirect drives an identical op sequence into a hot
// node (memory-only: every run resident) and a cold node (tiny cache),
// spanning flushes and a compaction, and requires every query window to
// match bit for bit.
func TestColdEqualsHotDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	hot := NewNode(4 * numShards)
	cold := openedNode(t, t.TempDir(), 4*numShards, coldOptions)
	defer hot.Close()
	defer cold.Close()

	ids := []core.SensorID{sid(1, 1), sid(1, 2), sid(7, 3)}
	apply := func(f func(*Node) error) {
		if err := f(hot); err != nil {
			t.Fatal(err)
		}
		if err := f(cold); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 200; step++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(10) {
		case 0:
			apply(func(n *Node) error { return n.Flush() })
		case 1:
			cutoff := int64(rng.Intn(5000))
			apply(func(n *Node) error { return n.DeleteBefore(id, cutoff) })
		case 2:
			apply(func(n *Node) error { n.Compact(); return nil })
		default:
			batch := make([]core.Reading, 1+rng.Intn(40))
			base := int64(rng.Intn(5000))
			for i := range batch {
				batch[i] = core.Reading{Timestamp: base + int64(i), Value: rng.NormFloat64()}
			}
			apply(func(n *Node) error { return n.InsertBatch(id, batch, 0) })
		}
	}
	cold.sp.waitIdle()
	for _, id := range ids {
		for _, w := range [][2]int64{{-1 << 62, 1 << 62}, {100, 2000}, {4999, 5005}} {
			h, err := hot.Query(id, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			c, err := cold.Query(id, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(h) != len(c) {
				t.Fatalf("sensor %v window %v: hot %d cold %d readings", id, w, len(h), len(c))
			}
			for i := range h {
				if h[i] != c[i] {
					t.Fatalf("sensor %v window %v position %d: hot %v cold %v", id, w, i, h[i], c[i])
				}
			}
		}
	}
	// The cold node must actually have evicted: after waitIdle every
	// spilled run dropped its entries, so cache misses are inevitable
	// on the reads above.
	if cacheMetric(t, cold, "misses_total") == 0 {
		t.Fatal("cold node never read a block from disk")
	}
}

func TestBlockCacheEvictionBound(t *testing.T) {
	c := newBlockCache(10 * 1024)
	rf := &runFile{path: "x"}
	for i := 0; i < 100; i++ {
		es := make([]entry, 10)
		c.add(blockKey{rf: rf, off: uint64(i)}, es)
	}
	c.mu.Lock()
	used, entries := c.used, len(c.clock)
	c.mu.Unlock()
	if used > 10*1024 {
		t.Fatalf("cache holds %d bytes, budget 10240", used)
	}
	if entries == 0 || entries == 100 {
		t.Fatalf("expected partial residency, have %d/100", entries)
	}
	// Purging the file empties the cache completely.
	c.purge(rf)
	c.mu.Lock()
	used, entries = c.used, len(c.clock)
	c.mu.Unlock()
	if used != 0 || entries != 0 {
		t.Fatalf("purge left %d bytes in %d entries", used, entries)
	}
}

// TestNodeStreamMatchesQuery drains QueryStream and requires exactly
// Query's result, across chunk boundaries.
func TestNodeStreamMatchesQuery(t *testing.T) {
	dir := t.TempDir()
	n := openedNode(t, dir, 0, coldOptions)
	defer n.Close()
	id := sid(2, 9)
	const total = 3*StreamChunkReadings + 123
	batch := make([]core.Reading, 1000)
	for base := 0; base < total; base += len(batch) {
		for i := range batch {
			batch[i] = core.Reading{Timestamp: int64(base + i), Value: float64(base + i)}
		}
		if err := n.InsertBatch(id, batch, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	n.sp.waitIdle()

	want, err := n.Query(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []core.Reading
	chunks := 0
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) > StreamChunkReadings {
			t.Fatalf("chunk of %d readings exceeds bound %d", len(rs), StreamChunkReadings)
		}
		got = append(got, rs...)
		chunks++
	}
	if chunks < 3 {
		t.Fatalf("expected multiple chunks, got %d", chunks)
	}
	if len(got) != len(want) {
		t.Fatalf("stream %d readings, query %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: stream %v query %v", i, got[i], want[i])
		}
	}
	// Early close releases resources without errors.
	st2, err := n.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Next(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterQuorumStreamMergesAndRepairs checks the incremental QUORUM
// merge: a replica that missed writes must not hide them from the
// stream, and must be repaired in the background.
func TestClusterQuorumStreamMergesAndRepairs(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	c, err := NewClusterOptions(backends, ClusterOptions{
		Replication:     3,
		ReadConsistency: ConsistencyQuorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(4, 4)
	replicas := c.replicasFor(id)
	// Write 1..N to all, then N+1..M only to two replicas (one missed).
	for ts := int64(1); ts <= 10; ts++ {
		if err := c.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(ts)}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(11); ts <= 20; ts++ {
		for _, idx := range replicas[:2] {
			if err := nodes[idx].InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(ts)}}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := c.QueryStream(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
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
	st.Close()
	if len(got) != 20 {
		t.Fatalf("quorum stream returned %d readings, want 20: %v", len(got), got)
	}
	for i, r := range got {
		if r.Timestamp != int64(i+1) || r.Value != float64(i+1) {
			t.Fatalf("position %d: %v", i, r)
		}
	}
	// Background repair converges the replica that missed 11..20.
	c.repairWG.Wait()
	lag := nodes[replicas[2]]
	rs, err := lag.Query(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 20 {
		t.Fatalf("read repair left the stale replica with %d readings", len(rs))
	}
}

// TestClusterPrefixStreamOrderedAndComplete checks the SID-ordered
// keyed merge against each sensor's own read. (What the read forms must
// agree on under conflict is TestReadFormsAgreeOnConflict's business.)
func TestClusterPrefixStreamOrderedAndComplete(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	c, err := NewClusterOptions(backends, ClusterOptions{Replication: 2, ReadConsistency: ConsistencyQuorum})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prefix := core.SensorID{Hi: 0x0001_0002_0003_0004, Lo: 0}
	for s := uint64(0); s < 5; s++ {
		id := prefix
		id.Lo = s << 16
		for ts := int64(0); ts < 100; ts++ {
			if err := c.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(ts) + float64(s)}}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make(map[core.SensorID][]core.Reading)
	for s := uint64(0); s < 5; s++ {
		id := prefix
		id.Lo = s << 16
		rs, err := c.Query(id, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = rs
	}
	st, err := c.QueryPrefixStream(prefix, 4, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := make(map[core.SensorID][]core.Reading)
	var lastID core.SensorID
	first := true
	for {
		id, rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !first && id.Compare(lastID) < 0 {
			t.Fatalf("keyed stream went backwards: %v after %v", id, lastID)
		}
		lastID, first = id, false
		got[id] = append(got[id], rs...)
	}
	if len(got) != len(want) {
		t.Fatalf("stream saw %d sensors, query %d", len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if len(g) != len(w) {
			t.Fatalf("sensor %v: stream %d readings, query %d", id, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("sensor %v position %d: stream %v query %v", id, i, g[i], w[i])
			}
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		bad  bool
	}{
		{"0", 0, false}, {"123", 123, false}, {"64K", 64 << 10, false},
		{"256MB", 256 << 20, false}, {"2g", 2 << 30, false}, {"7 kb", 7 << 10, false},
		{"12B", 12, false},
		{"", 0, true}, {"-5", 0, true}, {"MB", 0, true}, {"1.5G", 0, true},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseByteSize(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

// TestClusterStreamConsistencyOneFailover: at ONE, a down primary's
// stream opens on the next replica.
func TestClusterStreamConsistencyOneFailover(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	c, err := NewClusterOptions(backends, ClusterOptions{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(5, 5)
	for ts := int64(0); ts < 10; ts++ {
		if err := c.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: float64(ts)}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	nodes[c.replicasFor(id)[0]].SetDown(true)
	st, err := c.QueryStream(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	count := 0
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count += len(rs)
	}
	if count != 10 {
		t.Fatalf("failover stream returned %d readings", count)
	}
	// With every replica down, the open fails.
	nodes[c.replicasFor(id)[1]].SetDown(true)
	if _, err := c.QueryStream(id, 0, 100); err == nil {
		t.Fatal("stream opened with all replicas down")
	}
}

// TestQuorumStreamEarlyClose: closing a quorum stream mid-merge cancels
// the replica streams without error.
func TestQuorumStreamEarlyClose(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	c, err := NewClusterOptions(backends, ClusterOptions{Replication: 3, ReadConsistency: ConsistencyQuorum})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(7, 7)
	for ts := int64(0); ts < 3*StreamChunkReadings; ts++ {
		if err := c.InsertBatch(id, []core.Reading{{Timestamp: ts, Value: 1}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("Next after Close: %v", err)
	}
}

// TestPrefixStreamQuorumNotMet: a down node must fail the quorum
// prefix stream at open, like every QUORUM prefix read.
func TestPrefixStreamQuorumNotMet(t *testing.T) {
	nodes := []*Node{NewNode(0), NewNode(0)}
	backends := make([]NodeBackend, len(nodes))
	for i, n := range nodes {
		backends[i] = n
	}
	c, err := NewClusterOptions(backends, ClusterOptions{Replication: 2, ReadConsistency: ConsistencyQuorum})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := sid(1, 1)
	if err := c.InsertBatch(id, []core.Reading{{Timestamp: 1, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDown(true)
	if _, err := c.QueryPrefixStream(id.Prefix(1), 1, 0, 10); err == nil {
		t.Fatal("quorum prefix stream opened with a replica window below quorum")
	}
	nodes[1].SetDown(false)
	st, err := c.QueryPrefixStream(id.Prefix(1), 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Next(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	st.Close()
	if _, _, err := st.Next(); err != io.EOF {
		t.Fatalf("Next after Close: %v", err)
	}
}

// TestBoundedMemoryColdReads is the resident-set-bound proof: with a
// small CacheBytes, on-disk retention grows far past the cache while
// the heap stays flat, and a full cold range read still returns every
// reading. CI runs this as the bounded-memory smoke step.
func TestBoundedMemoryColdReads(t *testing.T) {
	dir := t.TempDir()
	n := NewNode(1 << 15)
	o := DiskOptions{
		SyncInterval: -1, // durability cadence is not under test
		MaxRuns:      6,
		CacheBytes:   1 << 19, // 512 KB
	}
	if err := n.OpenOptions(dir, o); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	id := sid(6, 6)
	const (
		wave  = 100_000 // readings per wave (~2.4 MB decoded)
		waves = 10      // total decoded data ≈ 46x the cache budget
	)
	batch := make([]core.Reading, 1000)
	ingest := func(waveIdx int) {
		base := int64(waveIdx * wave)
		for off := 0; off < wave; off += len(batch) {
			for i := range batch {
				ts := base + int64(off+i)
				batch[i] = core.Reading{Timestamp: ts, Value: float64(ts % 977)}
			}
			if err := n.InsertBatch(id, batch, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	ingest(0)
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	n.sp.waitIdle()
	h0 := heap()
	for w := 1; w < waves; w++ {
		ingest(w)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	n.sp.waitIdle()
	h1 := heap()

	// Retention grew 10x; the heap must not have. Allow the cache
	// budget plus generous slack for runtime noise — far below the
	// ~22 MB the extra waves would occupy resident.
	slack := uint64(o.CacheBytes) + 8<<20
	if h1 > h0+slack {
		t.Fatalf("heap grew from %d to %d (+%d) while retention grew 10x; bound was +%d",
			h0, h1, h1-h0, slack)
	}

	// A full cold scan must return every reading while the heap stays
	// bounded mid-stream.
	st, err := n.QueryStream(id, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	count := 0
	var peak uint64
	for {
		rs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count += len(rs)
		if count%(20*StreamChunkReadings) < StreamChunkReadings {
			if h := heap(); h > peak {
				peak = h
			}
		}
	}
	if count != wave*waves {
		t.Fatalf("cold scan returned %d readings, want %d", count, wave*waves)
	}
	if peak > h0+slack {
		t.Fatalf("heap peaked at %d during the cold scan (baseline %d, bound +%d)", peak, h0, slack)
	}
	if misses, used := cacheMetric(t, n, "misses_total"), cacheMetric(t, n, "used_bytes"); misses == 0 || used > float64(o.CacheBytes) {
		t.Fatalf("cache stats misses=%g used=%g budget=%d", misses, used, o.CacheBytes)
	}
}

// cacheMetric reads one of the block cache's metrics,
// dcdb_store_cache_<name>, from n's metrics snapshot.
func cacheMetric(t *testing.T, n *Node, name string) float64 {
	t.Helper()
	samples, err := n.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sampleValue(t, samples, "dcdb_store_cache_"+name)
}
