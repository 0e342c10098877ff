// Command dcdbcsvimport bulk-loads CSV sensor data into a Collect
// Agent's data directory (paper §5.2), creating it if needed. The input
// format matches dcdbquery's output: a "sensor,timestamp,value" header
// followed by one reading per row with RFC3339 timestamps.
//
// Usage:
//
//	dcdbcsvimport -db /var/lib/dcdb/agent readings.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dcdb/internal/tooldb"
)

func main() {
	db := flag.String("db", "dcdb", "agent data directory")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("dcdbcsvimport: need exactly one CSV file")
	}
	conn, node, err := tooldb.Open(*db)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	n, err := conn.ImportCSV(f)
	if err != nil {
		log.Fatalf("dcdbcsvimport: after %d readings: %v", n, err)
	}
	if err := tooldb.Save(conn, node, *db); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d readings into %s\n", n, *db)
}
