// Command dcdbcsvimport bulk-loads CSV sensor data into a Collect
// Agent's data directory (paper §5.2), creating it if needed. The input
// format matches dcdbquery's output: a "sensor,timestamp,value" header
// followed by one reading per row with RFC3339 timestamps.
//
// The whole file is parsed before the directory is touched, so a file
// that does not parse changes nothing. The readings are then written in
// place through the same coordinator as the agent's writes, and are
// stamped like any of them: a reading imported at a timestamp the agent
// stored earlier replaces it. The agent started over the directory
// serves every imported reading.
//
// Usage:
//
//	dcdbcsvimport -db /var/lib/dcdb/agent readings.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/tooldb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("dcdbcsvimport: %v", err)
	}
}

// run carries out one command line (without the program name), writing
// what it reports to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dcdbcsvimport", flag.ContinueOnError)
	db := fs.String("db", "dcdb", "agent data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("need exactly one CSV file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	// The first pass only parses, and collects the topics.
	topics := map[string]bool{}
	if n, err := libdcdb.ParseCSV(f, func(topic string, _ []core.Reading) error {
		topics[topic] = true
		_, err := core.ParseTopic(topic)
		return err
	}); err != nil {
		return fmt.Errorf("after %d readings: %w", n, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	conn, cluster, err := tooldb.Edit(*db)
	if err != nil {
		return err
	}
	n, err := write(conn, *db, topics, f)
	if err != nil {
		cluster.Close()
		return fmt.Errorf("after %d readings: %w", n, err)
	}
	if err := tooldb.Save(conn, cluster, *db); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "imported %d readings into %s\n", n, *db)
	return nil
}

// write names every topic in the directory dir before a reading under
// it is stored, as the agent does, so a crash mid-import leaves no
// reading whose sensor the topic map cannot name; then it imports the
// file's readings.
func write(conn *libdcdb.Connection, dir string, topics map[string]bool, f io.Reader) (int, error) {
	for t := range topics {
		if err := conn.RegisterTopic(t); err != nil {
			return 0, err
		}
	}
	if err := collectagent.SaveTopics(dir, conn.Mapper()); err != nil {
		return 0, err
	}
	return conn.ImportCSV(f)
}
