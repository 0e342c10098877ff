// Command dcdbcsvimport bulk-loads CSV sensor data into a Collect
// Agent's data directory (paper §5.2), creating it if needed. The input
// format matches dcdbquery's output: a "sensor,timestamp,value" header
// followed by one reading per row with RFC3339 timestamps. Imported
// readings are unstamped (write version 0), so a reading the agent
// stored at the same timestamp outranks them.
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

	"dcdb/internal/tooldb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run carries out one command line (without the program name), writing
// what it reports to stdout. The directory is rewritten only once the
// whole file has been read.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dcdbcsvimport", flag.ContinueOnError)
	db := fs.String("db", "dcdb", "agent data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("dcdbcsvimport: need exactly one CSV file")
	}
	conn, node, err := tooldb.Open(*db)
	if err != nil {
		return err
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := conn.ImportCSV(f)
	if err != nil {
		return fmt.Errorf("dcdbcsvimport: after %d readings: %w", n, err)
	}
	if err := tooldb.Save(conn, node, *db); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "imported %d readings into %s\n", n, *db)
	return nil
}
