package rpc

import (
	"time"

	"dcdb/internal/metrics"
)

// Self-monitoring of the RPC layer. Client and Server each own a
// registry (a coordinator process embeds one client per storage node —
// shared names would collide; exporters inject a per-peer label
// instead). Calls are network-RTT scale, so latency is observed
// unsampled; the padded counters make the byte accounting on the frame
// paths contention-free.

// opHistograms builds one latency histogram per protocol op, indexed
// by op byte.
func opHistograms(reg *metrics.Registry, name, help string) [lastOp + 1]*metrics.Histogram {
	var hs [lastOp + 1]*metrics.Histogram
	for op := byte(1); op <= lastOp; op++ {
		if opName(op) == "unknown" {
			continue // a reserved number (protocol.go)
		}
		hs[op] = reg.LatencyHistogram(
			name+`{op="`+opName(op)+`"}`, help, 1)
	}
	return hs
}

// clientMetrics is the per-Client metric set.
type clientMetrics struct {
	reg     *metrics.Registry
	callLat [lastOp + 1]*metrics.Histogram

	inFlight *metrics.Gauge

	netRead    *metrics.Counter // frame bytes received (headers included)
	netWritten *metrics.Counter // frame bytes sent (headers included)

	connects     *metrics.Counter
	dialFailures *metrics.Counter
	callErrors   *metrics.Counter

	streamChunks *metrics.Counter
	streamBytes  *metrics.Counter
}

func newClientMetrics() *clientMetrics {
	reg := metrics.NewRegistry()
	return &clientMetrics{
		reg:     reg,
		callLat: opHistograms(reg, "dcdb_rpc_client_call_latency_seconds", "Call round-trip latency per op; for the stream ops, open to end of stream."),
		inFlight: reg.Gauge("dcdb_rpc_client_inflight_requests",
			"Unary calls currently awaiting a response."),
		netRead: reg.Counter("dcdb_rpc_client_net_read_bytes_total",
			"Frame bytes received across the client's connections, headers included."),
		netWritten: reg.Counter("dcdb_rpc_client_net_written_bytes_total",
			"Frame bytes sent across the client's connections, headers included."),
		connects: reg.Counter("dcdb_rpc_client_connects_total",
			"Successful dials: the first connect and every reconnect after a failure."),
		dialFailures: reg.Counter("dcdb_rpc_client_dial_failures_total",
			"Dial attempts that failed (each opens a backoff window)."),
		callErrors: reg.Counter("dcdb_rpc_client_call_errors_total",
			"Calls that returned an error (transport or application); a stream that failed to open or mid-way is one call."),
		streamChunks: reg.Counter("dcdb_rpc_client_stream_chunks_total",
			"Stream chunk frames received."),
		streamBytes: reg.Counter("dcdb_rpc_client_stream_bytes_total",
			"Stream chunk frame bytes received."),
	}
}

// Metrics returns the client's metric registry for exporters.
func (c *Client) Metrics() *metrics.Registry { return c.met.reg }

// observeCall records one finished call: a unary round trip, or a
// stream from its open to its end.
func (m *clientMetrics) observeCall(op byte, start time.Time, err error) {
	if op <= lastOp && m.callLat[op] != nil {
		m.callLat[op].ObserveSince(start)
	}
	if err != nil {
		m.callErrors.Inc()
	}
}

// serverMetrics is the per-Server metric set.
type serverMetrics struct {
	reg       *metrics.Registry
	handleLat [lastOp + 1]*metrics.Histogram

	inFlight *metrics.Gauge

	streamChunks *metrics.Counter
	streamBytes  *metrics.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:       reg,
		handleLat: opHistograms(reg, "dcdb_rpc_server_handle_latency_seconds", "Request execution latency per op (queueing excluded)."),
		inFlight: reg.Gauge("dcdb_rpc_server_inflight_requests",
			"Requests currently executing."),
		streamChunks: reg.Counter("dcdb_rpc_server_stream_chunks_total",
			"Stream chunk frames produced."),
		streamBytes: reg.Counter("dcdb_rpc_server_stream_bytes_total",
			"Stream chunk frame bytes produced."),
	}
	reg.CounterFunc("dcdb_rpc_server_requests_total",
		"Request frames accepted (streams count once).", func() float64 {
			return float64(s.requests.Load())
		})
	reg.GaugeFunc("dcdb_rpc_server_connections",
		"Live client connections.", func() float64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return float64(n)
		})
	return m
}

// Metrics returns the server's metric registry for exporters.
func (s *Server) Metrics() *metrics.Registry { return s.met.reg }

// observeHandle records one executed request.
func (m *serverMetrics) observeHandle(op byte, start time.Time) {
	if op <= lastOp && m.handleLat[op] != nil {
		m.handleLat[op].ObserveSince(start)
	}
}
