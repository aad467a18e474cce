package rds

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/obs"
)

// DefaultDialTimeout bounds Dial's connection establishment when the
// caller does not override it with WithDialTimeout.
const DefaultDialTimeout = 10 * time.Second

// tcpDial is a test seam over net.DialTimeout.
var tcpDial = net.DialTimeout

// ErrClientClosed reports use of a client after Close. Close is
// idempotent; pending round-trips unblock with this error.
var ErrClientClosed = errors.New("rds: client closed")

// ErrClosed is the historical name for ErrClientClosed.
var ErrClosed = ErrClientClosed

// ErrDisconnected reports that the client's connection is currently
// down. Without WithReconnect a lost connection is terminal and
// surfaces as a generic connection-lost error instead; with it,
// requests fail fast with an error wrapping ErrDisconnected while the
// reconnect loop works in the background, and idempotent operations
// (Query, Stats, Trace) transparently wait out the outage and retry.
var ErrDisconnected = errors.New("rds: disconnected")

// RemoteError is a server-side failure relayed in a reply.
type RemoteError struct {
	Op  Op
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rds: %s failed: %s", e.Op, e.Msg)
}

// RejectError is a server-side static-analysis rejection relayed in a
// reply, carrying the structured diagnostics (stable DPLnnn codes with
// positions) that refused the program.
type RejectError struct {
	Op    Op
	Msg   string
	Diags []DiagRec
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("rds: %s rejected: %s (%d diagnostics)", e.Op, e.Msg, len(e.Diags))
}

// HasCode reports whether any diagnostic carries the given code.
func (e *RejectError) HasCode(code string) bool {
	for _, d := range e.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// Event is a DPI event received over a subscription.
type Event struct {
	DPI     string
	Kind    string // report | notify | log | exit
	Payload string
	TimeMS  int64
	// Principal is the billing principal of the emitting instance
	// (empty for synthetic platform events).
	Principal string
}

// Client is a delegator's endpoint: it issues RDS requests over one
// connection and, after Subscribe, receives DPI events on Events().
//
// With WithReconnect the client survives connection loss: in-flight
// requests fail fast (wrapping ErrDisconnected), a background loop
// redials with jittered exponential backoff, and — circuit-breaker
// style — each fresh connection is half-open until the active
// subscription has been replayed over it, only then admitting normal
// traffic again. The Events channel stays open across reconnects.
type Client struct {
	principal string
	auth      *Authenticator

	dial   func() (net.Conn, error) // nil: connection loss is terminal
	rc     *ReconnectConfig         // nil: reconnect disabled
	reg    *obs.Registry
	tracer *obs.Tracer

	reconnects atomic.Uint64

	mu        sync.Mutex
	conn      net.Conn
	connGen   uint64        // bumped per installed connection
	connected bool          // a readLoop is live on conn
	ready     bool          // conn is past half-open: normal traffic admitted
	connCh    chan struct{} // non-nil during an outage; closed when it ends
	reconning bool          // a reconnect loop is running
	subFilter *string       // first successful Subscribe filter, for replay
	seq       uint32
	pending   map[uint32]chan *Message
	closed    bool
	failErr   error // what failed round-trips should report

	closeCh chan struct{} // closed by Close/terminate; stops the reconnect loop

	events     chan Event
	eventsOnce sync.Once

	bytesIn  uint64
	bytesOut uint64

	dialTimeout time.Duration // used by Dial only
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithAuth signs every request for the client's principal using auth
// (which must know the principal's secret).
func WithAuth(auth *Authenticator) ClientOption {
	return func(c *Client) { c.auth = auth }
}

// WithDialTimeout bounds Dial's TCP connection establishment. Zero or
// negative restores DefaultDialTimeout. It has no effect on NewClient,
// which wraps an already-established connection.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.dialTimeout = d }
}

// WithDialer supplies the connection factory used for reconnection.
// Dial installs one automatically (redialing the same address);
// NewClient callers who want WithReconnect must provide their own.
func WithDialer(dial func() (net.Conn, error)) ClientOption {
	return func(c *Client) { c.dial = dial }
}

// WithClientObs registers the client's telemetry
// (rds_client_reconnects_total) on reg.
func WithClientObs(reg *obs.Registry) ClientOption {
	return func(c *Client) { c.reg = reg }
}

// WithClientTracer records a "reconnect" span for each successful
// recovery on tr (nil is fine and records nothing).
func WithClientTracer(tr *obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// NewClient wraps an established connection. The caller owns conn until
// NewClient returns; afterwards Close releases it.
func NewClient(conn net.Conn, principal string, opts ...ClientOption) *Client {
	c := &Client{
		conn:      conn,
		principal: principal,
		pending:   make(map[uint32]chan *Message),
		events:    make(chan Event, 256),
		closeCh:   make(chan struct{}),
		connGen:   1,
		connected: true,
		ready:     true,
	}
	for _, o := range opts {
		o(c)
	}
	if c.reg != nil {
		c.reg.FuncCounter("rds_client_reconnects_total",
			"connections re-established after loss", c.reconnects.Load)
	}
	go c.readLoop(conn, 1)
	return c
}

// Dial connects to an RDS server at addr ("host:port"). Connection
// establishment is bounded by DefaultDialTimeout unless WithDialTimeout
// overrides it — an unreachable or black-holed address fails instead of
// blocking for the kernel's SYN retry horizon. The same bounded dial is
// installed as the client's reconnect dialer.
func Dial(addr, principal string, opts ...ClientOption) (*Client, error) {
	// Apply the options to a probe so Dial sees WithDialTimeout before
	// connecting; the real client gets them again in NewClient.
	probe := &Client{}
	for _, o := range opts {
		o(probe)
	}
	timeout := probe.dialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	dial := func() (net.Conn, error) {
		conn, err := tcpDial("tcp", addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("rds: dial %s: %w", addr, err)
		}
		return conn, nil
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	return NewClient(conn, principal, append([]ClientOption{WithDialer(dial)}, opts...)...), nil
}

// Close shuts the client down: the connection closes, pending requests
// unblock with ErrClientClosed, any reconnect loop stops, and the
// Events channel closes. Close is idempotent.
func (c *Client) Close() error {
	c.terminate(ErrClientClosed)
	return nil
}

// terminate moves the client into its final closed state, reporting err
// from every pending and future request. Safe to call more than once.
func (c *Client) terminate(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.failErr = err
	close(c.closeCh)
	conn, active := c.conn, c.connected
	for seq, ch := range c.pending {
		close(ch)
		delete(c.pending, seq)
	}
	if c.connCh != nil {
		close(c.connCh)
		c.connCh = nil
	}
	c.mu.Unlock()
	if conn != nil && active {
		conn.Close() // readLoop notices and closes events
	}
	if !active {
		c.eventsOnce.Do(func() { close(c.events) })
	}
}

// Events returns the stream of subscribed DPI events. The channel is
// closed when the client terminates (Close, or connection loss without
// reconnect); under WithReconnect it stays open across outages. Slow
// consumers lose events once the 256-deep buffer fills (the event is
// dropped, never the connection).
func (c *Client) Events() <-chan Event { return c.events }

// Bytes returns wire bytes sent and received, for the experiment
// harness.
func (c *Client) Bytes() (out, in uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesOut, c.bytesIn
}

// Reconnects reports how many times the client has re-established its
// connection after a loss.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

func (c *Client) readLoop(conn net.Conn, gen uint64) {
	err := c.readFrames(conn)
	c.connLost(conn, gen, err)
}

func (c *Client) readFrames(conn net.Conn) error {
	// The server batches event frames into one write; read them back the
	// same way, not with two syscalls per frame. Deadlines set on conn
	// still surface through the reader.
	br := bufio.NewReader(conn)
	for {
		body, err := ReadFrame(br)
		if err != nil {
			// A read-deadline expiry with nothing pending is a stale
			// deadline from an already-answered request, not a dead
			// connection: disarm it and keep reading (events may still
			// flow). With replies outstanding it is terminal — the
			// server blew the caller's deadline.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.mu.Lock()
				idle := len(c.pending) == 0
				c.mu.Unlock()
				if idle {
					_ = conn.SetReadDeadline(time.Time{})
					continue
				}
			}
			return err
		}
		c.mu.Lock()
		c.bytesIn += uint64(FrameSize(body))
		c.mu.Unlock()
		m, err := Decode(body)
		if err != nil {
			return err
		}
		switch m.Op {
		case OpEvent:
			select {
			case c.events <- Event{DPI: m.Name, Kind: m.Entry, Payload: string(m.Payload), TimeMS: m.TimeMS, Principal: m.Principal}:
			default: // drop on overflow
			}
		case OpReply:
			c.mu.Lock()
			ch, ok := c.pending[m.Seq]
			if ok {
				delete(c.pending, m.Seq)
			}
			idle := len(c.pending) == 0
			c.mu.Unlock()
			if idle {
				// Last outstanding reply: disarm the read deadline so
				// an idle (possibly subscribed) connection is not torn
				// down by a deadline meant for this request.
				_ = conn.SetReadDeadline(time.Time{})
			}
			if ok {
				ch <- m
			}
		}
	}
}

// connLost handles a connection's read loop exiting: it fails pending
// requests and either hands over to the reconnect loop or terminates
// the client.
func (c *Client) connLost(conn net.Conn, gen uint64, err error) {
	conn.Close()
	c.mu.Lock()
	if gen != c.connGen || !c.connected {
		c.mu.Unlock()
		return // a newer connection has already been installed
	}
	c.connected = false
	c.ready = false
	wasClosed := c.closed
	canReconnect := !wasClosed && c.rc != nil && c.dial != nil
	switch {
	case wasClosed:
		// terminate already set failErr.
	case canReconnect:
		c.failErr = fmt.Errorf("%w: %v", ErrDisconnected, err)
	default:
		c.closed = true
		c.failErr = fmt.Errorf("rds: connection lost: %w", err)
	}
	for seq, ch := range c.pending {
		close(ch)
		delete(c.pending, seq)
	}
	startLoop := false
	if canReconnect {
		if c.connCh == nil {
			c.connCh = make(chan struct{})
		}
		if !c.reconning {
			c.reconning = true
			startLoop = true
		}
	}
	c.mu.Unlock()
	if startLoop {
		go c.reconnectLoop()
	}
	if !canReconnect {
		c.eventsOnce.Do(func() { close(c.events) })
	}
}

func (c *Client) roundTrip(ctx context.Context, req *Message) (*Message, error) {
	return c.do(ctx, req, false)
}

// do performs one request/reply exchange. force bypasses the ready
// gate; the reconnect loop uses it to probe a half-open connection.
func (c *Client) do(ctx context.Context, req *Message, force bool) (*Message, error) {
	c.mu.Lock()
	if c.closed {
		err := c.failErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	if !force && !c.ready {
		err := c.failErr
		c.mu.Unlock()
		if err == nil {
			err = ErrDisconnected
		}
		return nil, err
	}
	conn := c.conn
	c.seq++
	req.Seq = c.seq
	ch := make(chan *Message, 1)
	c.pending[req.Seq] = ch
	c.mu.Unlock()

	req.Principal = c.principal
	if err := c.auth.Sign(req); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetWriteDeadline(deadline)
		// Mirror the write deadline on the read side: a server that
		// never answers must not leave the read loop blocked past the
		// caller's deadline. readLoop disarms it once replies drain.
		_ = conn.SetReadDeadline(deadline)
	} else {
		_ = conn.SetWriteDeadline(time.Time{})
	}
	// The frame goes out in one Write: callers on several goroutines
	// share conn, and a separate Write for the length prefix would let
	// their frames interleave.
	frame, err := req.AppendFrame(nil)
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.Seq)
		reconnecting := c.rc != nil && c.dial != nil && !c.closed
		c.mu.Unlock()
		if reconnecting {
			return nil, fmt.Errorf("%w: send: %v", ErrDisconnected, err)
		}
		return nil, fmt.Errorf("rds: send: %w", err)
	}
	c.mu.Lock()
	c.bytesOut += uint64(len(frame))
	c.mu.Unlock()

	select {
	case m, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.failErr
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			return nil, err
		}
		if !m.OK {
			if len(m.Diags) > 0 {
				return nil, &RejectError{Op: req.Op, Msg: m.Error, Diags: m.Diags}
			}
			return nil, &RemoteError{Op: req.Op, Msg: m.Error}
		}
		return m, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.Seq)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// retryIdempotent runs one idempotent request, and — when reconnect is
// enabled — waits out connection outages and retries until ctx expires
// or the client closes. mk builds a fresh message per attempt.
func (c *Client) retryIdempotent(ctx context.Context, mk func() *Message) (*Message, error) {
	for {
		m, err := c.do(ctx, mk(), false)
		if err == nil || c.rc == nil || !errors.Is(err, ErrDisconnected) {
			return m, err
		}
		if werr := c.awaitConn(ctx); werr != nil {
			return nil, werr
		}
	}
}

// awaitConn blocks until the client is connected and ready, ctx is
// done, or the client terminates.
func (c *Client) awaitConn(ctx context.Context) error {
	for {
		c.mu.Lock()
		if c.closed {
			err := c.failErr
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			return err
		}
		if c.ready {
			c.mu.Unlock()
			return nil
		}
		ch := c.connCh
		c.mu.Unlock()
		if ch == nil {
			// Between a half-open probe and readiness; spin via ctx.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
			continue
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Delegate transfers a DPL program to the server under name.
func (c *Client) Delegate(ctx context.Context, name, source string) error {
	_, err := c.roundTrip(ctx, &Message{Op: OpDelegate, Name: name, Lang: "dpl", Payload: []byte(source)})
	return err
}

// DelegateCompiled transfers a verified-bytecode artifact (an encoded
// dpl.CompiledProgram) to the server under name. The server admits it
// through the bytecode verifier instead of the source translator.
func (c *Client) DelegateCompiled(ctx context.Context, name string, program []byte) error {
	_, err := c.roundTrip(ctx, &Message{Op: OpDelegate, Name: name, Lang: LangCompiled, Payload: program})
	return err
}

// Instantiate starts an instance of dp calling entry(args...) and
// returns the new DPI id. Arguments are wire strings; see ParseArg for
// their interpretation server-side.
func (c *Client) Instantiate(ctx context.Context, dp, entry string, args ...string) (string, error) {
	m, err := c.roundTrip(ctx, &Message{Op: OpInstantiate, Name: dp, Entry: entry, Args: args})
	if err != nil {
		return "", err
	}
	return m.Name, nil
}

// Control applies suspend / resume / terminate to an instance.
func (c *Client) Control(ctx context.Context, dpiID, action string) error {
	_, err := c.roundTrip(ctx, &Message{Op: OpControl, Name: dpiID, Entry: action})
	return err
}

// Send delivers a message to an instance's mailbox.
func (c *Client) Send(ctx context.Context, dpiID, payload string) error {
	_, err := c.roundTrip(ctx, &Message{Op: OpSend, Name: dpiID, Payload: []byte(payload)})
	return err
}

// Query fetches instance status; empty dpiID lists all instances. Query
// is idempotent: under WithReconnect it retries across outages.
func (c *Client) Query(ctx context.Context, dpiID string) ([]InfoRec, error) {
	m, err := c.retryIdempotent(ctx, func() *Message {
		return &Message{Op: OpQuery, Name: dpiID}
	})
	if err != nil {
		return nil, err
	}
	return m.Infos, nil
}

// DeleteDP removes a program from the server's repository.
func (c *Client) DeleteDP(ctx context.Context, name string) error {
	_, err := c.roundTrip(ctx, &Message{Op: OpDeleteDP, Name: name})
	return err
}

// Eval performs one-shot remote evaluation: the program is translated,
// entry(args...) runs to completion, its rendered result returns in the
// reply, and the server retains nothing. This is the REV-style
// delegation+invocation-in-one-action the paper contrasts with full
// delegation.
func (c *Client) Eval(ctx context.Context, source, entry string, args ...string) (string, error) {
	m, err := c.roundTrip(ctx, &Message{Op: OpEval, Entry: entry, Payload: []byte(source), Args: args})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}

// Subscribe asks the server to forward events from DPIs whose id starts
// with filter (empty = all) onto this connection's Events stream. The
// first successful subscription is replayed automatically after every
// reconnect.
func (c *Client) Subscribe(ctx context.Context, filter string) error {
	_, err := c.roundTrip(ctx, &Message{Op: OpSubscribe, Name: filter})
	if err == nil {
		c.mu.Lock()
		if c.subFilter == nil {
			f := filter
			c.subFilter = &f
		}
		c.mu.Unlock()
	}
	return err
}

// Stats fetches the server's metrics registry rendered in Prometheus
// text exposition format. Stats is idempotent: under WithReconnect it
// retries across outages.
func (c *Client) Stats(ctx context.Context) (string, error) {
	m, err := c.retryIdempotent(ctx, func() *Message {
		return &Message{Op: OpStats, Entry: "metrics"}
	})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}

// TenantStatus fetches the server's per-tenant audit/billing table as
// a JSON document (default quota plus one row per known tenant). It is
// idempotent: under WithReconnect it retries across outages.
func (c *Client) TenantStatus(ctx context.Context) (string, error) {
	m, err := c.retryIdempotent(ctx, func() *Message {
		return &Message{Op: OpStats, Entry: "tenants"}
	})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}

// ViewStatus fetches the server's maintained-view status document
// (views, row counts, maintenance counters) as JSON. It is idempotent:
// under WithReconnect it retries across outages.
func (c *Client) ViewStatus(ctx context.Context) (string, error) {
	m, err := c.retryIdempotent(ctx, func() *Message {
		return &Message{Op: OpView, Entry: "status"}
	})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}

// ViewDefine installs (or replaces) an incrementally-maintained view
// from VDL source, returning the server's JSON definition record.
// Defining the same source twice converges to the same state, so it
// retries across outages like the other idempotent verbs.
func (c *Client) ViewDefine(ctx context.Context, src string) (string, error) {
	m, err := c.retryIdempotent(ctx, func() *Message {
		return &Message{Op: OpView, Entry: "define", Payload: []byte(src)}
	})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}

// ViewQuery fetches one maintained view's current rows as JSON. It is
// idempotent: under WithReconnect it retries across outages.
func (c *Client) ViewQuery(ctx context.Context, name string) (string, error) {
	m, err := c.retryIdempotent(ctx, func() *Message {
		return &Message{Op: OpView, Entry: "query", Name: name}
	})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}

// Trace fetches up to max recent delegation-lifecycle spans from the
// server's trace ring as a JSON array (max <= 0 fetches all retained).
// Trace is idempotent: under WithReconnect it retries across outages.
func (c *Client) Trace(ctx context.Context, max int) (string, error) {
	m, err := c.retryIdempotent(ctx, func() *Message {
		req := &Message{Op: OpStats, Entry: "trace"}
		if max > 0 {
			req.Name = strconv.Itoa(max)
		}
		return req
	})
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}
