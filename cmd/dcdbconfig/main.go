// Command dcdbconfig performs database management and sensor
// configuration tasks (paper §5.2): publishing sensor properties such
// as units and scaling factors, defining virtual sensors, deleting old
// data and compacting the Storage Backend. DIR is a Collect Agent's
// data directory.
//
// Usage:
//
//	dcdbconfig -db DIR publish TOPIC [-unit U] [-scale S] [-ttl D] [-integrable]
//	dcdbconfig -db DIR vsensor TOPIC EXPRESSION
//	dcdbconfig -db DIR show TOPIC
//	dcdbconfig -db DIR list [PATH]
//	dcdbconfig -db DIR cleanup TOPIC BEFORE-RFC3339
//	dcdbconfig -db DIR compact
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/tooldb"
)

func main() {
	db := flag.String("db", "dcdb", "agent data directory")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("dcdbconfig: no command (publish, vsensor, show, list, cleanup, compact)")
	}
	conn, node, err := tooldb.Open(*db)
	if err != nil {
		log.Fatal(err)
	}
	switch args[0] {
	case "publish":
		fs := flag.NewFlagSet("publish", flag.ExitOnError)
		unit := fs.String("unit", "", "physical unit")
		scale := fs.Float64("scale", 1, "scaling factor")
		ttl := fs.Duration("ttl", 0, "retention (0 = forever)")
		integrable := fs.Bool("integrable", false, "monotonic counter")
		if len(args) < 2 {
			log.Fatal("dcdbconfig publish: missing topic")
		}
		fs.Parse(args[2:])
		m := core.Metadata{Topic: args[1], Unit: *unit, Scale: *scale, TTL: *ttl, Integrable: *integrable}
		if err := conn.PublishSensor(m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published %s\n", args[1])
	case "vsensor":
		if len(args) < 3 {
			log.Fatal("dcdbconfig vsensor: need TOPIC EXPRESSION")
		}
		m := core.Metadata{Topic: args[1], Virtual: true, Expression: args[2]}
		if err := conn.PublishSensor(m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("defined virtual sensor %s = %s\n", args[1], args[2])
	case "show":
		if len(args) < 2 {
			log.Fatal("dcdbconfig show: missing topic")
		}
		m, ok := conn.Metadata(args[1])
		if !ok {
			log.Fatalf("dcdbconfig: no metadata for %s", args[1])
		}
		fmt.Printf("topic: %s\nunit: %s\nscale: %g\nttl: %v\nintegrable: %v\nvirtual: %v\nexpression: %s\n",
			m.Topic, m.Unit, m.EffectiveScale(), m.TTL, m.Integrable, m.Virtual, m.Expression)
		return // read-only
	case "list":
		path := ""
		if len(args) > 1 {
			path = args[1]
		}
		for _, s := range conn.ListSensors(path) {
			fmt.Println(s)
		}
		return // read-only
	case "cleanup":
		if len(args) < 3 {
			log.Fatal("dcdbconfig cleanup: need TOPIC BEFORE")
		}
		cutoff, err := time.Parse(time.RFC3339, args[2])
		if err != nil {
			log.Fatalf("dcdbconfig: bad cutoff: %v", err)
		}
		if err := conn.DeleteBefore(args[1], cutoff.UnixNano()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("deleted %s readings before %s\n", args[1], args[2])
	case "compact":
		node.Compact()
		fmt.Println("compacted")
	default:
		log.Fatalf("dcdbconfig: unknown command %q", args[0])
	}
	if err := tooldb.Save(conn, node, *db); err != nil {
		log.Fatal(err)
	}
}
