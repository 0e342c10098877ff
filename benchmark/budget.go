package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"dcdb/internal/cache"
	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/mqtt"
	"dcdb/internal/ring"
	"dcdb/internal/store"
)

// The layer budget fills in the layers no seam exposes: it replays the
// workload's own generated messages and queries through the public
// functions of mqtt, core, cache, ring, store.Node and fold, in the
// harness process, and times them. Every figure is a mean over a fixed
// number of operations on fixed inputs, so it compares two versions of
// one function; it leaves out waiting, contention and the network.

const (
	budgetMessages = 4096 // messages replayed per figure
	budgetSensors  = 16   // sensors of the query-side data set
	budgetReadings = 4096 // readings per sensor in it
	// budgetCache is the block cache of the query-side node: smaller
	// than one sensor's decoded retention (4096 x 32 B), so a ranged
	// read after a sweep of the other sensors decodes from the file.
	budgetCache = 64 << 10
)

// timeOp runs op n times and returns the mean duration.
func timeOp(n int, op func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return time.Since(start) / time.Duration(n)
}

// layerBudget measures the in-process layers on the workload's
// messages and writes its figures into v. The caller owns scratch.
func layerBudget(w *workload, seed int64, scratch string, v map[string]float64) error {
	pop := newPopulation(seed, w.sensors)
	st := newStream(pop, 0, 1, w.batch)
	type msg struct {
		topic   string
		payload []byte
		rs      []core.Reading
	}
	msgs := make([]msg, budgetMessages)
	for i := range msgs {
		rs := make([]core.Reading, w.batch)
		m := st.nextMessage(rs)
		msgs[i] = msg{pop.topics[m.sensor], core.EncodeReadings(rs), rs}
	}
	batch := float64(w.batch)

	// mqtt: encode and decode the workload's own PUBLISH packets.
	var wire bytes.Buffer
	v["mqtt.encode_ns_per_msg"] = float64(timeOp(len(msgs), func(i int) {
		mqtt.WritePacket(&wire, &mqtt.Packet{Type: mqtt.PUBLISH, Flags: 1 << 1, ID: uint16(i + 1), Topic: msgs[i].topic, Payload: msgs[i].payload})
	}))
	rd := bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), 1<<16)
	var derr error
	v["mqtt.decode_ns_per_msg"] = float64(timeOp(len(msgs), func(int) {
		if _, err := mqtt.ReadPacket(rd); err != nil {
			derr = err
		}
	}))
	if derr != nil {
		return fmt.Errorf("budget: decoding a generated PUBLISH: %w", derr)
	}

	// mqtt: the transport floor, QoS 1 against a broker with no handler.
	broker := mqtt.NewBroker(nil)
	if err := broker.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer broker.Close()
	client, err := mqtt.Dial(broker.Addr(), mqtt.DialOptions{})
	if err != nil {
		return err
	}
	defer client.Close()
	var perr error
	rtt := timeOp(1024, func(i int) {
		m := &msgs[i%len(msgs)]
		if err := client.Publish(m.topic, m.payload, 1); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("budget: publish to a bare broker: %w", perr)
	}
	v["mqtt.publish_rtt_us"] = us(rtt)

	// core: payload decode; topic map on the workload's population.
	v["core.decode_ns_per_reading"] = float64(timeOp(len(msgs), func(i int) {
		core.DecodeReadings(msgs[i].payload)
	})) / batch
	mapper := core.NewTopicMapper()
	ids := make([]core.SensorID, pop.len())
	for i, t := range pop.topics {
		if ids[i], err = mapper.Map(t); err != nil {
			return err
		}
	}
	v["core.topicmap_hit_ns"] = float64(timeOp(len(msgs), func(i int) { mapper.Map(msgs[i].topic) }))
	v["core.topicmap_first_ns"] = float64(timeOp(256, func(i int) {
		mapper.MapFirst(fmt.Sprintf("/bench/rack%02d/chassis0/node00/new/first%04d", i%8, i))
	}))

	// cache: the agent's sensor cache at the workload's fleet size.
	sc := cache.New(0)
	for i := range msgs {
		sc.Store(msgs[i].topic, msgs[i].rs[len(msgs[i].rs)-1])
	}
	v["cache.store_ns"] = float64(timeOp(len(msgs), func(i int) {
		r := msgs[i].rs[len(msgs[i].rs)-1]
		r.Timestamp += periodNs * int64(len(msgs))
		sc.Store(msgs[i].topic, r)
	}))
	full := cache.New(0)
	for s, t := range pop.topics {
		full.Store(t, pop.reading(s, 0))
	}
	v["cache.size_bytes"] = float64(full.SizeBytes())

	// ring: placement lookup on a two-member ring.
	rg := ring.New([]string{"127.0.0.1:4441", "127.0.0.1:4442"}, ring.DefaultVNodes)
	v["ring.replicas_for_ns"] = float64(timeOp(len(msgs), func(i int) { rg.ReplicasFor(mix(uint64(i)), replication) }))

	// fold: the summary fold itself.
	sum := fold.NewSummary()
	v["fold.summary_ns_per_reading"] = float64(timeOp(len(msgs), func(i int) { sum.Add(msgs[i].rs) })) / batch

	// node, write side: the workload's batches as versioned writes into
	// a memory-only node, then into a durable node under the
	// benchmark's sync policy and flush size; the difference is the
	// WAL. Flush and Compact then settle the durable node, and its own
	// spill and compaction histograms — the same series a live dcdbnode
	// exports — give the cost of those per reading.
	versioned := make([][]store.VersionedReading, len(msgs))
	msgIDs := make([]core.SensorID, len(msgs))
	for i := range msgs {
		vrs := make([]store.VersionedReading, len(msgs[i].rs))
		for j, r := range msgs[i].rs {
			vrs[j] = store.VersionedReading{Timestamp: r.Timestamp, Value: r.Value, Version: uint64(i + 1)}
		}
		versioned[i] = vrs
		msgIDs[i], _ = mapper.Lookup(msgs[i].topic)
	}
	var ierr error
	insertAll := func(n *store.Node) time.Duration {
		return timeOp(len(msgs), func(i int) {
			if err := n.InsertVersioned(msgIDs[i], versioned[i]); err != nil {
				ierr = err
			}
		})
	}
	mem := store.NewNode(flushSize)
	memNs := float64(insertAll(mem)) / batch
	dur := store.NewNode(flushSize)
	if err := dur.OpenOptions(filepath.Join(scratch, "budget-write"), store.DiskOptions{SyncInterval: walSync, CacheBytes: cacheBytes}); err != nil {
		return err
	}
	durNs := float64(insertAll(dur)) / batch
	if ierr != nil {
		dur.Close()
		return fmt.Errorf("budget: node insert: %w", ierr)
	}
	v["node.insert_mem_ns_per_reading"] = memNs
	v["node.insert_durable_ns_per_reading"] = durNs
	v["node.wal_ns_per_reading"] = durNs - memNs
	if err := dur.Flush(); err != nil {
		dur.Close()
		return err
	}
	dur.Compact() // waits for the spills to land, then merges every run file
	samples := dur.Metrics().Gather()
	spill := histogram(samples, "dcdb_store_spill_duration_seconds")
	compact := histogram(samples, "dcdb_store_compaction_duration_seconds")
	stored := float64(len(msgs)) * batch
	v["node.flush_ns_per_reading"] = float64(spill.Sum) / stored
	v["node.compact_ns_per_reading"] = float64(compact.Sum) / stored
	if err := dur.Close(); err != nil {
		return err
	}

	// node, read side: budgetSensors x budgetReadings, once fully
	// resident (hot) and once spilled behind a cache smaller than one
	// sensor (cold). The same querySpan-reading range is read from
	// both; the difference is block fetch and decode.
	hot := store.NewNode(flushSize)
	cold := store.NewNode(flushSize)
	if err := cold.OpenOptions(filepath.Join(scratch, "budget-read"), store.DiskOptions{SyncInterval: -1, CacheBytes: budgetCache}); err != nil {
		return err
	}
	defer cold.Close()
	qpop := newPopulation(seed, budgetSensors)
	rs := make([]core.Reading, burstBatch)
	for s := 0; s < budgetSensors; s++ {
		for k := int64(0); k < budgetReadings; k += burstBatch {
			qpop.fill(rs, s, k)
			if err := hot.InsertBatch(ids[s], rs, 0); err != nil {
				return err
			}
			if err := cold.InsertBatch(ids[s], rs, 0); err != nil {
				return err
			}
		}
	}
	if err := cold.Flush(); err != nil {
		return err
	}
	cold.Compact()
	var qerr error
	rangeRead := func(n *store.Node) time.Duration {
		return timeOp(256, func(i int) {
			s := i % budgetSensors
			lo := int64(mix(uint64(i)) % uint64(budgetReadings-querySpan))
			got, err := n.Query(ids[s], qpop.tsOf(s, lo), qpop.tsOf(s, lo+querySpan-1))
			if err == nil && len(got) != querySpan {
				err = fmt.Errorf("range read returned %d readings, want %d", len(got), querySpan)
			}
			if err != nil {
				qerr = err
			}
		})
	}
	hotT, coldT := rangeRead(hot), rangeRead(cold)
	v["node.query_hot_us"] = us(hotT)
	v["node.query_cold_us"] = us(coldT)
	v["node.block_decode_ns_per_reading"] = float64(coldT-hotT) / querySpan
	v["fold.aggregate_node_us"] = us(timeOp(256, func(i int) {
		st, err := cold.Aggregate(ids[i%budgetSensors], fold.Spec{Op: fold.OpSummary, From: minTime, To: maxTime})
		if err == nil && st.Count() != budgetReadings {
			err = fmt.Errorf("aggregate folded %d readings, want %d", st.Count(), budgetReadings)
		}
		if err != nil {
			qerr = err
		}
	}))
	if qerr != nil {
		return fmt.Errorf("budget: node read: %w", qerr)
	}
	return nil
}
