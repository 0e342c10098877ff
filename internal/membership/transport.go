package membership

import (
	"sync"
	"time"

	"dcdb/internal/rpc"
)

// RPCTransportOptions tune the default gossip transport.
type RPCTransportOptions struct {
	// DialTimeout and CallTimeout bound one exchange; gossip rounds are
	// frequent and small, so both default far below the data-path
	// client's (1s each) — a slow peer should fail the round, not stall
	// it.
	DialTimeout time.Duration
	CallTimeout time.Duration
	// Client overrides the remaining rpc.ClientOptions (fault-injection
	// dial seams, clocks). Timeout fields above win when set.
	Client rpc.ClientOptions
}

// rpcTransport exchanges gossip over the cluster's own RPC framing
// (opGossip), one cached pipelined client per peer address — gossip
// shares the node's single listening port and wire format with the
// data path.
type rpcTransport struct {
	o       RPCTransportOptions
	mu      sync.Mutex
	clients map[string]*rpc.Client
	closed  bool
}

// NewRPCTransport builds the default transport.
func NewRPCTransport(o RPCTransportOptions) Transport {
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = time.Second
	}
	return &rpcTransport{o: o, clients: make(map[string]*rpc.Client)}
}

func (t *rpcTransport) client(addr string) *rpc.Client {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.clients[addr]; ok {
		return c
	}
	co := t.o.Client
	co.PoolSize = 1 // one connection carries a node's whole gossip load
	co.DialTimeout = t.o.DialTimeout
	co.CallTimeout = t.o.CallTimeout
	c := rpc.NewClient(addr, co)
	if !t.closed {
		t.clients[addr] = c
	}
	return c
}

// Exchange implements Transport.
func (t *rpcTransport) Exchange(addr string, state []byte) ([]byte, error) {
	return t.client(addr).Gossip(state)
}

// Close implements Transport.
func (t *rpcTransport) Close() error {
	t.mu.Lock()
	clients := t.clients
	t.clients = make(map[string]*rpc.Client)
	t.closed = true
	t.mu.Unlock()
	var firstErr error
	for _, c := range clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
