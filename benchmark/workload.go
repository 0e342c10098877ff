package main

// workload is one named traffic shape. Every field is a constant of the
// benchmark: identical on every commit, never derived at run time.
type workload struct {
	name string
	why  string

	sensors int
	conns   int // publisher connections (one goroutine each)
	batch   int // readings per MQTT message
	// rate is the offered load in messages per second over all
	// connections, open loop; 0 is a closed loop: every connection
	// publishes its next message when the previous one is acknowledged.
	rate float64
	// refRate sizes the work of a closed loop: the window is
	// refRate x seconds messages, however long they take. It is about
	// the rate the reference box reached when the benchmark was
	// defined, so that a window lasts about --seconds there.
	refRate float64
	// preload is the number of readings per sensor that set-up
	// publishes in bursts and then flushes and compacts, so that they
	// are cold (on disk, evicted) when the timed window opens.
	preload int
	// queries adds one goroutine that issues the seeded query mix
	// closed loop beside the ingest.
	queries bool
}

// steadyRate is the offered load of fanin_steady in messages per
// second, frozen at about half of what fanin_saturate reached closed
// loop on the reference box when the benchmark was defined (5 700 to
// 7 500 messages/s). Re-calibrating it starts a new baseline.
const steadyRate = 2900

// burstBatch is the paper's burst forwarding mode: 64 readings of one
// sensor per MQTT message.
const burstBatch = 64

// querySpan is the length in readings of a recent or cold range read.
const querySpan = 1000

var workloads = []workload{
	{
		name:    "fanin_steady",
		why:     "open loop at half of fan-in capacity, 1 reading/message, 2000 sensors: the production shape; nothing queues, so ack latency and CPU per reading show per-message path cost without contention",
		sensors: 2000, conns: 2, batch: 1, rate: steadyRate,
	},
	{
		name:    "fanin_saturate",
		why:     "closed loop, 2 connections back to back, 1 reading/message, 20000 sensors: the fan-in wall; per-message layers (MQTT, topic map, cache, ring, unary RPC) do nearly all the work",
		sensors: 20000, conns: 2, batch: 1, refRate: 6000,
	},
	{
		name:    "burst_batch",
		why:     "closed loop, 2 connections, 64 readings/message, 500 sensors: per-reading layers dominate (decode, batch RPC bytes, WAL, memtable, spill, block encode, compaction), per-message layers do 1/64",
		sensors: 500, conns: 2, batch: burstBatch, refRate: 3600,
	},
	{
		name:    "query_under_ingest",
		why:     "closed-loop recent/cold/aggregate reads (60/25/15) beside open-loop ingest into the same 200 sensors, cold data 4x the block cache: a write gain paid for in reads, or the reverse, shows only here",
		sensors: 200, conns: 1, batch: 1, rate: steadyRate / 4, preload: 2560, queries: true,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
