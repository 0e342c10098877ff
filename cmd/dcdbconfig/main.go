// Command dcdbconfig performs database management and sensor
// configuration tasks (paper §5.2): publishing sensor properties such
// as units and scaling factors, defining virtual sensors, deleting old
// data and compacting the Storage Backend. DIR is a Collect Agent's
// data directory, edited in place: publish, vsensor, show and list
// read it and write only its topics and meta files; cleanup and
// compact open its store writable and delete or compact in it, through
// the same write path as the agent's. No reading is copied.
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
	"dcdb/internal/libdcdb"
	"dcdb/internal/store"
	"dcdb/internal/tooldb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("dcdbconfig: %v", err)
	}
}

// run carries out one command line (without the program name), writing
// what it reports to stdout. show and list leave the directory as it
// is; publish and vsensor save its topics and metadata; cleanup and
// compact write its store.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dcdbconfig", flag.ContinueOnError)
	db := fs.String("db", "dcdb", "agent data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return errors.New("no command (publish, vsensor, show, list, cleanup, compact)")
	}
	open := tooldb.Open
	if args[0] == "cleanup" || args[0] == "compact" {
		open = tooldb.Edit
	}
	conn, cluster, err := open(*db)
	if err != nil {
		return err
	}
	changed, err := command(conn, cluster, args, stdout)
	if err != nil || !changed {
		if cerr := cluster.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return tooldb.Save(conn, cluster, *db)
}

// command carries out args on the open directory and reports whether
// it changed the topics or metadata, which are then saved.
func command(conn *libdcdb.Connection, cluster *store.Cluster, args []string, stdout io.Writer) (changed bool, err error) {
	switch args[0] {
	case "publish":
		pub := flag.NewFlagSet("publish", flag.ContinueOnError)
		unit := pub.String("unit", "", "physical unit")
		scale := pub.Float64("scale", 1, "scaling factor")
		ttl := pub.Duration("ttl", 0, "retention (0 = forever)")
		integrable := pub.Bool("integrable", false, "monotonic counter")
		if len(args) < 2 {
			return false, errors.New("dcdbconfig publish: missing topic")
		}
		if err := pub.Parse(args[2:]); err != nil {
			return false, err
		}
		m := core.Metadata{Topic: args[1], Unit: *unit, Scale: *scale, TTL: *ttl, Integrable: *integrable}
		if err := conn.PublishSensor(m); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "published %s\n", args[1])
		return true, nil
	case "vsensor":
		if len(args) < 3 {
			return false, errors.New("dcdbconfig vsensor: need TOPIC EXPRESSION")
		}
		m := core.Metadata{Topic: args[1], Virtual: true, Expression: args[2]}
		if err := conn.PublishSensor(m); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "defined virtual sensor %s = %s\n", args[1], args[2])
		return true, nil
	case "show":
		if len(args) < 2 {
			return false, errors.New("dcdbconfig show: missing topic")
		}
		m, ok := conn.Metadata(args[1])
		if !ok {
			return false, fmt.Errorf("no metadata for %s", args[1])
		}
		fmt.Fprintf(stdout, "topic: %s\nunit: %s\nscale: %g\nttl: %v\nintegrable: %v\nvirtual: %v\nexpression: %s\n",
			m.Topic, m.Unit, m.EffectiveScale(), m.TTL, m.Integrable, m.Virtual, m.Expression)
		return false, nil
	case "list":
		path := ""
		if len(args) > 1 {
			path = args[1]
		}
		for _, s := range conn.ListSensors(path) {
			fmt.Fprintln(stdout, s)
		}
		return false, nil
	case "cleanup":
		if len(args) < 3 {
			return false, errors.New("dcdbconfig cleanup: need TOPIC BEFORE")
		}
		cutoff, err := time.Parse(time.RFC3339, args[2])
		if err != nil {
			return false, fmt.Errorf("bad cutoff: %v", err)
		}
		id, ok := conn.Mapper().Lookup(args[1])
		if !ok {
			return false, fmt.Errorf("unknown sensor %q", args[1])
		}
		if err := cluster.DeleteBefore(id, cutoff.UnixNano()); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "deleted %s readings before %s\n", args[1], args[2])
	case "compact":
		cluster.Compact()
		fmt.Fprintln(stdout, "compacted")
	default:
		return false, fmt.Errorf("unknown command %q", args[0])
	}
	return false, nil
}
