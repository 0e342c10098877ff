package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcdb/internal/tooldb"
)

// server serves the data-source API over a temp agent directory that
// holds readings 1..n of two sensors, a second apart from base.
func server(t *testing.T, base time.Time, n int) *httptest.Server {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "agent")
	conn, cluster, err := tooldb.Edit(dir)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("sensor,timestamp,value\n")
	for _, tp := range []string{"/dc/r1/power", "/dc/r1/temp"} {
		for k := 1; k <= n; k++ {
			fmt.Fprintf(&csv, "%s,%s,%d\n", tp, base.Add(time.Duration(k)*time.Second).Format(time.RFC3339Nano), k)
		}
	}
	if _, err := conn.ImportCSV(strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	if err := tooldb.Save(conn, cluster, dir); err != nil {
		t.Fatal(err)
	}
	if conn, cluster, err = tooldb.Open(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(conn, cluster))
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})
	return srv
}

// post sends body to path and returns the status and the trimmed reply.
func post(t *testing.T, srv *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(b))
}

func TestQueryAndSearch(t *testing.T) {
	base := time.Date(2019, 6, 8, 0, 0, 0, 0, time.UTC)
	srv := server(t, base, 4)
	rng := func(from, to time.Time) string {
		return fmt.Sprintf(`"range":{"from":%q,"to":%q}`, from.Format(time.RFC3339), to.Format(time.RFC3339))
	}
	all := rng(base, base.Add(time.Minute))
	ms := base.UnixMilli()
	for _, c := range []struct{ name, path, body, want string }{
		{"raw series", "/query", `{"targets":[{"target":"/dc/r1/power"}],` + all + `}`,
			fmt.Sprintf(`[{"target":"/dc/r1/power","datapoints":[[1,%d],[2,%d],[3,%d],[4,%d]]}]`, ms+1000, ms+2000, ms+3000, ms+4000)},
		{"a window with no readings", "/query", `{"targets":[{"target":"/dc/r1/power"}],` + rng(base.Add(time.Hour), base.Add(2*time.Hour)) + `}`,
			`[{"target":"/dc/r1/power","datapoints":[]}]`},
		{"no targets", "/query", `{"targets":[],` + all + `}`, `[]`},
		{"children", "/search", `{"target":"/dc"}`, `{"children":["r1"],"sensors":["/dc/r1/power","/dc/r1/temp"]}`},
		{"nothing below", "/search", `{"target":"/nowhere"}`, `{"children":[],"sensors":[]}`},
	} {
		code, got := post(t, srv, c.path, c.body)
		if code != http.StatusOK || got != c.want {
			t.Errorf("%s: %d %s, want 200 %s", c.name, code, got, c.want)
		}
	}
	// Downsampled: buckets over the requested range, fewer than asked.
	code, got := post(t, srv, "/query", `{"targets":[{"target":"/dc/r1/temp"}],`+all+`,"maxDataPoints":2}`)
	if code != http.StatusOK || !strings.HasPrefix(got, `[{"target":"/dc/r1/temp","datapoints":[[`) || strings.Count(got, "],[") > 1 {
		t.Errorf("downsampled query: %d %s", code, got)
	}
}

// TestQueryRejectsBadRanges: a query must name a range, in order; a
// body that is not JSON is a 400 too.
func TestQueryRejectsBadRanges(t *testing.T) {
	base := time.Date(2019, 6, 8, 0, 0, 0, 0, time.UTC)
	srv := server(t, base, 2)
	from, to := base.Format(time.RFC3339), base.Add(time.Minute).Format(time.RFC3339)
	for _, c := range []struct{ name, body, want string }{
		{"no range", `{"targets":[{"target":"/dc/r1/power"}]}`, "range.from and range.to are required"},
		{"no to", fmt.Sprintf(`{"targets":[{"target":"/dc/r1/power"}],"range":{"from":%q}}`, from), "range.from and range.to are required"},
		{"from after to", fmt.Sprintf(`{"targets":[{"target":"/dc/r1/power"}],"range":{"from":%q,"to":%q}}`, to, from), "range.from is after range.to"},
		{"not JSON", `{"targets":`, "unexpected EOF"},
	} {
		if code, got := post(t, srv, "/query", c.body); code != http.StatusBadRequest || !strings.Contains(got, c.want) {
			t.Errorf("%s: %d %s, want 400 with %q", c.name, code, got, c.want)
		}
	}
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health check: %d", resp.StatusCode)
	}
}
