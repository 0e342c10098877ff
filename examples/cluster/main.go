// Cluster: DCDB's distributed, hierarchical deployment (paper Figure
// 1) in miniature — four Pushers on "compute nodes" of two racks, two
// Collect Agents sharing one topic mapper, and a three-node Storage
// Backend cluster placed on the consistent-hash ring by rack prefix,
// with replication. The example shows subtree locality (a rack's
// sensors share one replica set), cross-agent aggregation, and replica
// failover when a storage node goes down.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/config"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/mqtt"
	"dcdb/internal/plugins/tester"
	"dcdb/internal/pusher"
	"dcdb/internal/store"
)

func main() {
	// Storage Backend: three nodes, placement keyed at rack depth, two
	// replicas per row.
	nodes := []*store.Node{store.NewNode(0), store.NewNode(0), store.NewNode(0)}
	cluster, err := store.NewCluster(nodes, store.RingPartitioner{Depth: 2}, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Two Collect Agents share the mapper so SIDs agree.
	mapper := core.NewTopicMapper()
	var agents []*collectagent.Agent
	for i := 0; i < 2; i++ {
		a := collectagent.New(cluster, mapper, collectagent.Options{})
		if err := a.Listen("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
	}
	fmt.Printf("2 collect agents on %s and %s, 3 storage nodes (replication 2)\n",
		agents[0].Addr(), agents[1].Addr())

	// Four Pushers: rack00/rack01 × node0/node1, alternating agents.
	var hosts []*pusher.Host
	for rack := 0; rack < 2; rack++ {
		for nd := 0; nd < 2; nd++ {
			agent := agents[(rack*2+nd)%len(agents)]
			client, err := mqtt.Dial(agent.Addr(), mqtt.DialOptions{
				ClientID: fmt.Sprintf("pusher-r%dn%d", rack, nd),
			})
			if err != nil {
				log.Fatal(err)
			}
			defer client.Close()
			h := pusher.NewHost(client, pusher.Options{Threads: 1, QoS: 1})
			defer h.Close()
			plug := tester.New()
			cfg, _ := config.ParseString(fmt.Sprintf(
				"group metrics { interval 50 sensors 8 mqttPrefix /lrz/rack%02d/node%d }", rack, nd))
			if err := plug.Configure(cfg); err != nil {
				log.Fatal(err)
			}
			if err := h.StartPlugin(plug); err != nil {
				log.Fatal(err)
			}
			hosts = append(hosts, h)
		}
	}

	time.Sleep(1500 * time.Millisecond)
	var totalReadings int64
	for _, a := range agents {
		totalReadings += a.Stats().Readings
	}
	fmt.Printf("agents ingested %d readings from 4 pushers\n", totalReadings)

	// Subtree locality: all of rack00's sensors share one primary.
	for i, n := range nodes {
		ins, _, entries := n.Stats()
		fmt.Printf("storage node %d: %d inserts, %d resident entries\n", i, ins, entries)
	}

	// Query across the whole system.
	conn := libdcdb.Connect(cluster, mapper)
	now := time.Now().UnixNano()
	sensors := agents[0].Hierarchy().Sensors("/lrz/rack00")
	fmt.Printf("rack00 exposes %d sensors via agent hierarchy\n", len(sensors))
	rs, err := conn.Query("/lrz/rack00/node0/s00000", 0, now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sample sensor has %d readings\n", len(rs))

	// Failover: kill the primary of rack00's subtree; reads survive.
	id, _ := mapper.Lookup("/lrz/rack00/node0/s00000")
	var primary int // in-process members are named node<i>
	fmt.Sscanf(cluster.Owners(id)[0], "node%d", &primary)
	nodes[primary].SetDown(true)
	fmt.Printf("storage node %d (rack00 primary) marked down …\n", primary)
	rs2, err := conn.Query("/lrz/rack00/node0/s00000", 0, now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query served from replica: %d readings (replication works)\n", len(rs2))
}
