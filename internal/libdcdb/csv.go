package libdcdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"dcdb/internal/core"
)

// CSV export/import in the format of the dcdbquery and dcdbcsvimport
// tools (paper §5.2): one row per reading, "sensor,timestamp,value",
// with RFC3339Nano timestamps.

// ExportCSV writes the readings of the given sensors over [from, to].
// Rows are streamed: each sensor's result arrives in bounded chunks
// (over RPC, chunk frames) and is printed as it lands, so exporting a
// long retention never materializes it — in memory here or on the
// serving node.
func (c *Connection) ExportCSV(w io.Writer, topics []string, from, to int64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"sensor", "timestamp", "value"}); err != nil {
		return err
	}
	for _, topic := range topics {
		st, err := c.QueryStream(topic, from, to)
		if err != nil {
			return fmt.Errorf("libdcdb: exporting %q: %w", topic, err)
		}
		t, _ := core.CanonicalTopic(topic)
		for {
			rs, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				st.Close()
				return fmt.Errorf("libdcdb: exporting %q: %w", topic, err)
			}
			for _, r := range rs {
				rec := []string{
					t,
					r.Time().UTC().Format(time.RFC3339Nano),
					strconv.FormatFloat(r.Value, 'g', -1, 64),
				}
				if err := cw.Write(rec); err != nil {
					st.Close()
					return err
				}
			}
			// Hand rows to the terminal as they arrive rather than
			// buffering the whole export.
			cw.Flush()
			if err := cw.Error(); err != nil {
				st.Close()
				return err
			}
		}
		st.Close()
	}
	cw.Flush()
	return cw.Error()
}

// ImportCSV bulk-loads readings written by ExportCSV (or hand-made
// files with the same header). It returns the number of readings
// imported: at a row that does not parse, every row before it.
func (c *Connection) ImportCSV(r io.Reader) (int, error) {
	return ParseCSV(r, c.InsertBatch)
}

// csvBatch bounds the readings ParseCSV hands over at once, so parsing
// a file holds one batch, however long a sensor's run of rows.
const csvBatch = 1 << 13

// ParseCSV reads a file in ImportCSV's format and hands its readings to
// batch, a run of consecutive rows of one sensor at a time, at most
// csvBatch readings long. It stops at the first row that does not parse
// or the first error batch returns, and returns the number of readings
// batch accepted.
func ParseCSV(r io.Reader, batch func(topic string, rs []core.Reading) error) (int, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("libdcdb: reading CSV header: %w", err)
	}
	if header[0] != "sensor" || header[1] != "timestamp" || header[2] != "value" {
		return 0, fmt.Errorf("libdcdb: unexpected CSV header %v", header)
	}
	count := 0
	batchTopic := ""
	var rs []core.Reading
	flush := func() error {
		if len(rs) == 0 {
			return nil
		}
		if err := batch(batchTopic, rs); err != nil {
			return err
		}
		count += len(rs)
		rs = rs[:0]
		return nil
	}
	// A row that does not parse ends the file: the rows before it are
	// handed over first, so the count says where it is.
	fail := func(err error) (int, error) {
		if ferr := flush(); ferr != nil {
			return count, ferr
		}
		return count, err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(fmt.Errorf("libdcdb: reading CSV: %w", err))
		}
		ts, err := time.Parse(time.RFC3339Nano, rec[1])
		if err != nil {
			return fail(fmt.Errorf("libdcdb: bad timestamp %q: %w", rec[1], err))
		}
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return fail(fmt.Errorf("libdcdb: bad value %q: %w", rec[2], err))
		}
		if rec[0] != batchTopic || len(rs) == csvBatch {
			if err := flush(); err != nil {
				return count, err
			}
			batchTopic = rec[0]
		}
		rs = append(rs, core.Reading{Timestamp: ts.UnixNano(), Value: v})
	}
	return count, flush()
}
