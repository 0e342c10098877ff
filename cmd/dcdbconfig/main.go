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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/tooldb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run carries out one command line (without the program name), writing
// what it reports to stdout. The read-only commands, show and list,
// leave the directory as it is; every other one rewrites it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dcdbconfig", flag.ContinueOnError)
	db := fs.String("db", "dcdb", "agent data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return errors.New("dcdbconfig: no command (publish, vsensor, show, list, cleanup, compact)")
	}
	conn, node, err := tooldb.Open(*db)
	if err != nil {
		return err
	}
	switch args[0] {
	case "publish":
		pub := flag.NewFlagSet("publish", flag.ContinueOnError)
		unit := pub.String("unit", "", "physical unit")
		scale := pub.Float64("scale", 1, "scaling factor")
		ttl := pub.Duration("ttl", 0, "retention (0 = forever)")
		integrable := pub.Bool("integrable", false, "monotonic counter")
		if len(args) < 2 {
			return errors.New("dcdbconfig publish: missing topic")
		}
		if err := pub.Parse(args[2:]); err != nil {
			return err
		}
		m := core.Metadata{Topic: args[1], Unit: *unit, Scale: *scale, TTL: *ttl, Integrable: *integrable}
		if err := conn.PublishSensor(m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "published %s\n", args[1])
	case "vsensor":
		if len(args) < 3 {
			return errors.New("dcdbconfig vsensor: need TOPIC EXPRESSION")
		}
		m := core.Metadata{Topic: args[1], Virtual: true, Expression: args[2]}
		if err := conn.PublishSensor(m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "defined virtual sensor %s = %s\n", args[1], args[2])
	case "show":
		if len(args) < 2 {
			return errors.New("dcdbconfig show: missing topic")
		}
		m, ok := conn.Metadata(args[1])
		if !ok {
			return fmt.Errorf("dcdbconfig: no metadata for %s", args[1])
		}
		fmt.Fprintf(stdout, "topic: %s\nunit: %s\nscale: %g\nttl: %v\nintegrable: %v\nvirtual: %v\nexpression: %s\n",
			m.Topic, m.Unit, m.EffectiveScale(), m.TTL, m.Integrable, m.Virtual, m.Expression)
		return nil // read-only
	case "list":
		path := ""
		if len(args) > 1 {
			path = args[1]
		}
		for _, s := range conn.ListSensors(path) {
			fmt.Fprintln(stdout, s)
		}
		return nil // read-only
	case "cleanup":
		if len(args) < 3 {
			return errors.New("dcdbconfig cleanup: need TOPIC BEFORE")
		}
		cutoff, err := time.Parse(time.RFC3339, args[2])
		if err != nil {
			return fmt.Errorf("dcdbconfig: bad cutoff: %v", err)
		}
		if err := conn.DeleteBefore(args[1], cutoff.UnixNano()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "deleted %s readings before %s\n", args[1], args[2])
	case "compact":
		node.Compact()
		fmt.Fprintln(stdout, "compacted")
	default:
		return fmt.Errorf("dcdbconfig: unknown command %q", args[0])
	}
	return tooldb.Save(conn, node, *db)
}
