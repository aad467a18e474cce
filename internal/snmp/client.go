package snmp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

// RoundTripper sends one encoded SNMP request and returns the encoded
// response. Implementations exist for UDP sockets, for in-process
// agents, and (in netsim) for simulated links with virtual latency.
type RoundTripper interface {
	RoundTrip(ctx context.Context, req []byte) ([]byte, error)
}

// RoundTripperFunc adapts a function to the RoundTripper interface.
type RoundTripperFunc func(ctx context.Context, req []byte) ([]byte, error)

// RoundTrip implements RoundTripper.
func (f RoundTripperFunc) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	return f(ctx, req)
}

// AgentTripper returns a RoundTripper that calls an Agent in process —
// the zero-latency path used by unit tests and by delegated agents
// proxying to a co-located SNMP agent.
func AgentTripper(a *Agent) RoundTripper {
	return RoundTripperFunc(func(_ context.Context, req []byte) ([]byte, error) {
		resp := a.HandlePacket(req)
		if resp == nil {
			return nil, fmt.Errorf("snmp: request dropped by agent")
		}
		return resp, nil
	})
}

// ClientStats counts client-side protocol activity and wire volume.
type ClientStats struct {
	Requests     uint64
	Retries      uint64
	Timeouts     uint64
	BytesSent    uint64
	BytesRcvd    uint64
	RoundTripLat time.Duration // cumulative
}

// Client is an SNMPv1 manager endpoint: it issues Get, GetNext, Set and
// Walk operations through a RoundTripper with timeout and retry
// handling, and accounts bytes and latency for the experiment harness.
type Client struct {
	rt        RoundTripper
	community string
	timeout   time.Duration
	retries   int

	reqID atomic.Int32

	mu    sync.Mutex
	stats ClientStats
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout sets the per-attempt timeout (default 2s).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetries sets the number of retransmissions after the first
// attempt (default 2).
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// NewClient returns a manager client using community auth over rt.
func NewClient(rt RoundTripper, community string, opts ...ClientOption) *Client {
	c := &Client{rt: rt, community: community, timeout: 2 * time.Second, retries: 2}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Stats returns a copy of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// RequestError is a non-zero error-status response from the agent.
type RequestError struct {
	Status ErrorStatus
	Index  int
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("snmp: %s at index %d", e.Status, e.Index)
}

func (c *Client) exchange(ctx context.Context, typ PDUType, vbs []VarBind) ([]VarBind, error) {
	req := &Message{
		Community: c.community,
		Type:      typ,
		RequestID: c.reqID.Add(1),
		VarBinds:  vbs,
	}
	pkt, err := req.Encode()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		start := time.Now()
		actx, cancel := context.WithTimeout(ctx, c.timeout)
		respPkt, err := c.rt.RoundTrip(actx, pkt)
		cancel()
		if err != nil {
			lastErr = err
			c.mu.Lock()
			c.stats.Timeouts++
			c.mu.Unlock()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		c.mu.Lock()
		c.stats.Requests++
		c.stats.BytesSent += uint64(len(pkt))
		c.stats.BytesRcvd += uint64(len(respPkt))
		c.stats.RoundTripLat += time.Since(start)
		c.mu.Unlock()
		resp, err := Decode(respPkt)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.RequestID != req.RequestID {
			lastErr = fmt.Errorf("snmp: response id %d for request %d", resp.RequestID, req.RequestID)
			continue
		}
		if resp.ErrorStatus != NoError {
			return nil, &RequestError{Status: resp.ErrorStatus, Index: resp.ErrorIndex}
		}
		return resp.VarBinds, nil
	}
	return nil, fmt.Errorf("snmp: request failed after %d attempts: %w", c.retries+1, lastErr)
}

// Get retrieves the values of the named instances.
func (c *Client) Get(ctx context.Context, names ...oid.OID) ([]VarBind, error) {
	vbs := make([]VarBind, len(names))
	for i, n := range names {
		vbs[i] = VarBind{Name: n, Value: mib.Null()}
	}
	return c.exchange(ctx, PDUGetRequest, vbs)
}

// GetNext retrieves the lexicographic successors of the named OIDs.
func (c *Client) GetNext(ctx context.Context, names ...oid.OID) ([]VarBind, error) {
	vbs := make([]VarBind, len(names))
	for i, n := range names {
		vbs[i] = VarBind{Name: n, Value: mib.Null()}
	}
	return c.exchange(ctx, PDUGetNextRequest, vbs)
}

// Walk traverses the subtree rooted at prefix with repeated GetNext
// operations, invoking fn for every instance. It returns the number of
// instances visited.
func (c *Client) Walk(ctx context.Context, prefix oid.OID, fn func(VarBind) bool) (int, error) {
	cur := prefix
	n := 0
	for {
		vbs, err := c.GetNext(ctx, cur)
		if err != nil {
			var re *RequestError
			if errors.As(err, &re) && re.Status == NoSuchName {
				return n, nil // walked off the end of the MIB
			}
			return n, err
		}
		vb := vbs[0]
		if !vb.Name.HasPrefix(prefix) {
			return n, nil
		}
		if vb.Name.Compare(cur) <= 0 {
			return n, fmt.Errorf("snmp: agent returned non-increasing OID %s after %s", vb.Name, cur)
		}
		n++
		if !fn(vb) {
			return n, nil
		}
		cur = vb.Name
	}
}

// UDPTripper is a RoundTripper over a UDP socket. Each RoundTrip sends
// one datagram and waits for one reply.
type UDPTripper struct {
	mu   sync.Mutex
	conn net.Conn
}

// DialUDP connects a tripper to the agent at addr ("host:port").
func DialUDP(addr string) (*UDPTripper, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("snmp: dial %s: %w", addr, err)
	}
	return &UDPTripper{conn: conn}, nil
}

// RoundTrip implements RoundTripper.
func (u *UDPTripper) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(5 * time.Second)
	}
	if err := u.conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := u.conn.Write(req); err != nil {
		return nil, fmt.Errorf("snmp: send: %w", err)
	}
	buf := make([]byte, 65536)
	n, err := u.conn.Read(buf)
	if err != nil {
		return nil, fmt.Errorf("snmp: receive: %w", err)
	}
	return buf[:n], nil
}

// Close releases the socket.
func (u *UDPTripper) Close() error { return u.conn.Close() }
