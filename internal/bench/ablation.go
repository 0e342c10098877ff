package bench

import (
	"fmt"
	"io"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/store"
)

// Ablation drivers for the design choices DESIGN.md calls out. Unlike
// the figure drivers these run the real implementation and measure it.

// BurstAblation compares continuous and burst forwarding for the same
// reading stream: messages sent, payload bytes, and bytes of protocol
// overhead saved. It quantifies the §6.2.1 observation that bursty
// forwarding reduces network interference for message-sensitive
// applications like AMG.
type BurstAblation struct {
	Readings           int
	ContinuousMessages int
	BurstMessages      int
	ContinuousBytes    int // payload + fixed per-message overhead
	BurstBytes         int
	OverheadPerMsg     int
}

// RunBurstAblation models sensors × intervalsPerFlush readings per
// flush period.
func RunBurstAblation(sensors, intervalsPerFlush int) BurstAblation {
	const msgOverhead = 2 + 2 + 30 // MQTT fixed header + topic length + topic
	a := BurstAblation{
		Readings:       sensors * intervalsPerFlush,
		OverheadPerMsg: msgOverhead,
	}
	// Continuous: one message per sensor per interval.
	a.ContinuousMessages = sensors * intervalsPerFlush
	a.ContinuousBytes = a.ContinuousMessages * (msgOverhead + 16)
	// Burst: one message per sensor per flush carrying all readings.
	a.BurstMessages = sensors
	a.BurstBytes = a.BurstMessages*msgOverhead + a.Readings*16
	return a
}

// RenderBurstAblation writes the comparison.
func RenderBurstAblation(w io.Writer, a BurstAblation) {
	header := []string{"Mode", "Messages", "Bytes"}
	body := [][]string{
		{"continuous", fmt.Sprint(a.ContinuousMessages), fmt.Sprint(a.ContinuousBytes)},
		{"burst", fmt.Sprint(a.BurstMessages), fmt.Sprint(a.BurstBytes)},
	}
	writeTable(w, header, body)
	fmt.Fprintf(w, "burst sends %.1fx fewer packets for %d readings\n",
		float64(a.ContinuousMessages)/float64(a.BurstMessages), a.Readings)
}

// PartitionerAblation compares the ring keyed on the SID prefix at a
// depth against the ring keyed on the full SID (depth 0) on a subtree
// query workload (paper §4.3): the prefix key keeps a subtree's sensors
// on one node, so the subtree's data lives on a single server instead
// of all of them, at the price of a coarser ingest balance.
type PartitionerAblation struct {
	Nodes             int
	SensorsPerSubtree int
	Subtrees          int
	Rows              []PartitionerRow // depth 2 (the subtree queried), then depth 0
}

// PartitionerRow is one placement-key depth's measurement.
type PartitionerRow struct {
	Depth           int
	NodesPerQuery   float64 // nodes holding data for one subtree
	MaxNodeFraction float64 // ingest balance: largest node's share
}

// ringOf builds a cluster of n empty in-process nodes at replication 1
// to ask the real placement code who owns what.
func ringOf(n, depth int) (*store.Cluster, error) {
	ns := make([]*store.Node, n)
	for i := range ns {
		ns[i] = store.NewNode(0)
	}
	return store.NewCluster(ns, store.RingPartitioner{Depth: depth}, 1)
}

// RunPartitionerAblation asks Cluster.Owners where each sensor of each
// subtree lands and measures node spread per subtree and ingest
// balance.
func RunPartitionerAblation(nodes, subtrees, sensorsPerSubtree int) (PartitionerAblation, error) {
	res := PartitionerAblation{Nodes: nodes, SensorsPerSubtree: sensorsPerSubtree, Subtrees: subtrees}
	mapper := core.NewTopicMapper()
	// Depth 2 = /sys/rackNN: the subtree granularity queried.
	for _, depth := range []int{2, 0} {
		cl, err := ringOf(nodes, depth)
		if err != nil {
			return res, err
		}
		perNode := make(map[string]int)
		var totalTouched int
		for st := 0; st < subtrees; st++ {
			touched := make(map[string]bool)
			for s := 0; s < sensorsPerSubtree; s++ {
				id, err := mapper.Map(fmt.Sprintf("/sys/rack%02d/node%02d/metric%03d", st, s%16, s))
				if err != nil {
					cl.Close()
					return res, err
				}
				owner := cl.Owners(id)[0]
				touched[owner] = true
				perNode[owner]++
			}
			totalTouched += len(touched)
		}
		cl.Close()
		res.Rows = append(res.Rows, PartitionerRow{
			Depth:           depth,
			NodesPerQuery:   float64(totalTouched) / float64(subtrees),
			MaxNodeFraction: float64(maxCount(perNode)) / float64(subtrees*sensorsPerSubtree),
		})
	}
	return res, nil
}

func maxCount(m map[string]int) int {
	most := 0
	for _, n := range m {
		most = max(most, n)
	}
	return most
}

// RenderPartitionerAblation writes the comparison.
func RenderPartitionerAblation(w io.Writer, a PartitionerAblation) {
	header := []string{"Placement key", "Nodes/subtree-query", "Max node ingest share"}
	var body [][]string
	for _, r := range a.Rows {
		body = append(body, []string{fmt.Sprintf("ring(depth=%d)", r.Depth), fmtF(r.NodesPerQuery, 2), fmtF(r.MaxNodeFraction, 3)})
	}
	writeTable(w, header, body)
	fmt.Fprintf(w, "%d nodes, %d subtrees x %d sensors: a prefix key keeps a subtree on one node\n",
		a.Nodes, a.Subtrees, a.SensorsPerSubtree)
}

// fleetKinds are the per-node sensors of the benchmark's synthetic
// fleet (benchmark/gen.go), as <plugin>/<sensor>.
var fleetKinds = [...]string{
	"perfevents/instructions", "perfevents/cycles", "perfevents/cache-misses", "perfevents/branch-misses",
	"perfevents/flops", "procfs/cpu_user", "procfs/ctxt", "procfs/intr", "procfs/memfree",
	"sysfs/pkg_energy", "sysfs/cpu_temp", "sysfs/freq", "ipmi/power", "ipmi/inlet_temp", "ipmi/fan_rpm",
	"facility/setpoint",
}

// FleetOwnership is the primary-ownership balance of the benchmark's
// fleet shape (/bench/rackRR/chassisC/nodeNN/<plugin>/<sensor>, 16
// nodes a chassis, 4 chassis a rack) on one ring: the number of
// distinct placement keys the fleet has at that depth — the share of
// the workload locality can act on — and how unevenly they fall.
type FleetOwnership struct {
	Sensors, Members, Depth int
	Keys                    int     // distinct placement keys
	MaxOverMean             float64 // busiest member's sensors / mean
}

// RunFleetOwnership measures the two fleet sizes the benchmark runs at
// depth 0 and the tools' default depth 4, on 2, 3 and 8 members.
func RunFleetOwnership() ([]FleetOwnership, error) {
	var rows []FleetOwnership
	for _, sensors := range []int{2000, 20000} {
		mapper := core.NewTopicMapper()
		ids := make([]core.SensorID, sensors)
		for i := range ids {
			node := i / len(fleetKinds)
			chassis := node / 16
			id, err := mapper.Map(fmt.Sprintf("/bench/rack%02d/chassis%d/node%02d/%s",
				chassis/4, chassis%4, node%16, fleetKinds[i%len(fleetKinds)]))
			if err != nil {
				return nil, err
			}
			ids[i] = id
		}
		for _, depth := range []int{0, 4} {
			keys := make(map[core.SensorID]struct{})
			for _, id := range ids {
				if depth > 0 {
					id = id.Prefix(depth)
				}
				keys[id] = struct{}{}
			}
			for _, members := range []int{2, 3, 8} {
				cl, err := ringOf(members, depth)
				if err != nil {
					return nil, err
				}
				perNode := make(map[string]int)
				for _, id := range ids {
					perNode[cl.Owners(id)[0]]++
				}
				cl.Close()
				rows = append(rows, FleetOwnership{
					Sensors: sensors, Members: members, Depth: depth, Keys: len(keys),
					MaxOverMean: float64(maxCount(perNode)) * float64(members) / float64(sensors),
				})
			}
		}
	}
	return rows, nil
}

// RenderFleetOwnership writes the ownership table.
func RenderFleetOwnership(w io.Writer, rows []FleetOwnership) {
	header := []string{"Sensors", "Depth", "Distinct keys", "Members", "Max/mean ownership"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{fmt.Sprint(r.Sensors), fmt.Sprint(r.Depth), fmt.Sprint(r.Keys),
			fmt.Sprint(r.Members), fmtF(r.MaxOverMean, 3)})
	}
	writeTable(w, header, body)
}

// GroupingAblation compares grouped sampling (one collective read and
// one timestamp per group, the DCDB design) against per-sensor
// sampling: reads performed and distinct timestamps produced for the
// same sensor population.
type GroupingAblation struct {
	Sensors          int
	GroupSize        int
	Intervals        int
	GroupedReads     int
	PerSensorReads   int
	GroupedStamps    int // distinct timestamps per interval
	PerSensorStamps  int
	CorrelationReady bool // one timestamp per group enables direct correlation
}

// RunGroupingAblation computes the structural costs.
func RunGroupingAblation(sensors, groupSize, intervals int) GroupingAblation {
	if groupSize <= 0 {
		groupSize = 1
	}
	groups := (sensors + groupSize - 1) / groupSize
	return GroupingAblation{
		Sensors:          sensors,
		GroupSize:        groupSize,
		Intervals:        intervals,
		GroupedReads:     groups * intervals,
		PerSensorReads:   sensors * intervals,
		GroupedStamps:    groups,
		PerSensorStamps:  sensors,
		CorrelationReady: true,
	}
}

// RenderGroupingAblation writes the comparison.
func RenderGroupingAblation(w io.Writer, a GroupingAblation) {
	header := []string{"Scheme", "Reads", "Timestamps/interval"}
	body := [][]string{
		{fmt.Sprintf("grouped(size=%d)", a.GroupSize), fmt.Sprint(a.GroupedReads), fmt.Sprint(a.GroupedStamps)},
		{"per-sensor", fmt.Sprint(a.PerSensorReads), fmt.Sprint(a.PerSensorStamps)},
	}
	writeTable(w, header, body)
	fmt.Fprintf(w, "%d sensors over %d intervals: grouping cuts reads %.0fx and aligns timestamps for correlation\n",
		a.Sensors, a.Intervals, float64(a.PerSensorReads)/float64(a.GroupedReads))
}

// MeasuredAgentThroughputBatched is MeasuredAgentThroughput with
// configurable batch size (burst-mode payloads).
func MeasuredAgentThroughputBatched(d time.Duration, batch int) (perSec float64, nsPerReading float64) {
	if batch <= 0 {
		batch = 1
	}
	backend := store.NewNode(0)
	agentRS := make([]core.Reading, batch)
	for i := range agentRS {
		agentRS[i] = core.Reading{Timestamp: int64(i), Value: float64(i)}
	}
	payload := core.EncodeReadings(agentRS)
	a := newQuietAgent(backend)
	start := time.Now()
	var n int64
	for time.Since(start) < d {
		a.Handle("/bench/batched/sensor", payload)
		n += int64(batch)
	}
	elapsed := time.Since(start)
	return float64(n) / elapsed.Seconds(), float64(elapsed.Nanoseconds()) / float64(n)
}
