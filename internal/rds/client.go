package rds

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultDialTimeout bounds Dial's connection establishment when the
// caller does not override it with WithDialTimeout.
const DefaultDialTimeout = 10 * time.Second

// tcpDial is a test seam over net.DialTimeout.
var tcpDial = net.DialTimeout

// ErrClientClosed reports use of a client after Close. Close is
// idempotent; pending round-trips unblock with this error.
var ErrClientClosed = errors.New("rds: client closed")

// ErrDisconnected reports that the client's connection is currently
// down. Without WithReconnect a lost connection is terminal and
// surfaces as a generic connection-lost error instead; with it,
// requests fail fast with an error wrapping ErrDisconnected while the
// reconnect loop works in the background, and the ops whose op-table
// row is idempotent (Query, Stats, Trace, TenantStatus, DomainStatus and
// the three view verbs) transparently wait out the outage and retry.
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

// replyErr is the error a failed reply to op reports: a RejectError when
// it carries diagnostics, a RemoteError otherwise.
func replyErr(op Op, m *Message) error {
	if len(m.Diags) > 0 {
		return &RejectError{Op: op, Msg: m.Error, Diags: m.Diags}
	}
	return &RemoteError{Op: op, Msg: m.Error}
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

// Unwrap returns the RemoteError this rejection refines: a rejection is
// a remote failure that also carries diagnostics, so errors.As finds a
// *RemoteError, with the same Op and Msg, in every RejectError.
func (e *RejectError) Unwrap() error { return &RemoteError{Op: e.Op, Msg: e.Msg} }

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
// Dial picks the transport from the address. A stream client (TCP, the
// default) sends length-prefixed frames. A datagram client
// ("udp://host:port") sends each request as one bare encoded datagram
// and takes each reply from one: no subscriptions (the server refuses
// them), requests over 60 KiB refused before sending, and on a lost
// reply only the requests the op table marks idempotent are sent again.
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

	dial func() (net.Conn, error) // nil: connection loss is terminal
	rc   *ReconnectConfig         // nil: reconnect disabled

	// packet selects the datagram transport; timeout and retries are
	// its per-attempt reply wait and an idempotent request's resends.
	packet  bool
	timeout time.Duration
	retries int

	eventsDropped atomic.Uint64

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

// WithPacketTimeout sets a datagram client's wait for each reply
// before it gives up or, for an idempotent request, sends it again
// (default 2s). It has no effect on a stream client.
func WithPacketTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithPacketRetries sets how many times a datagram client sends an
// idempotent request again after the first attempt (default 2). It has
// no effect on a stream client.
func WithPacketRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
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
	go c.readLoop(conn, 1)
	return c
}

// Dial connects to an RDS server at addr: "host:port" for the stream
// transport, "udp://host:port" for the datagram one. Connection
// establishment is bounded by DefaultDialTimeout unless WithDialTimeout
// overrides it — an unreachable or black-holed address fails instead
// of blocking for the kernel's SYN retry horizon. The same bounded dial
// is installed as a stream client's reconnect dialer; a datagram client
// has no connection to lose.
func Dial(addr, principal string, opts ...ClientOption) (*Client, error) {
	if hostport, ok := strings.CutPrefix(addr, "udp://"); ok {
		conn, err := net.Dial("udp", hostport)
		if err != nil {
			return nil, fmt.Errorf("rds: dial udp %s: %w", hostport, err)
		}
		datagram := func(c *Client) { c.packet, c.timeout, c.retries = true, 2*time.Second, 2 }
		return NewClient(conn, principal, append([]ClientOption{datagram}, opts...)...), nil
	}
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
// dropped, never the connection, and counted in EventsDropped); the
// events after it still arrive intact. A burst can arrive while the
// request that set it off (a Send, say) still waits for its reply, so a
// manager that takes bursts of more than 256 events reads Events on a
// goroutine of its own.
func (c *Client) Events() <-chan Event { return c.events }

// EventsDropped reports how many received events were discarded because
// the Events channel was full.
func (c *Client) EventsDropped() uint64 { return c.eventsDropped.Load() }

// Bytes returns wire bytes sent and received, for the experiment
// harness.
func (c *Client) Bytes() (out, in uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesOut, c.bytesIn
}

func (c *Client) readLoop(conn net.Conn, gen uint64) {
	var err error
	if c.packet {
		err = c.readDatagrams(conn)
	} else {
		err = c.readFrames(conn)
	}
	c.connLost(conn, gen, err)
}

// readDatagrams reads one message per datagram until the socket
// closes. Undecodable datagrams are dropped, and so is any other read
// error (an ICMP port-unreachable, say): the request's attempt timer
// decides what a silent server means.
func (c *Client) readDatagrams(conn net.Conn) error {
	buf := make([]byte, maxDatagram)
	for {
		n, err := conn.Read(buf)
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		if err != nil {
			continue
		}
		c.mu.Lock()
		c.bytesIn += uint64(n)
		c.mu.Unlock()
		if m, err := Decode(buf[:n]); err == nil {
			c.receive(conn, m)
		}
	}
}

// readFrames reads frames until the connection fails. Each event frame
// is decoded against the last event of the one before on this
// connection (a fresh connection starts from none), and moves that
// context on whether Events takes its events or drops them.
func (c *Client) readFrames(conn net.Conn) error {
	// The server batches event frames into one write; read them back the
	// same way, not with two syscalls per frame. Deadlines set on conn
	// still surface through the reader.
	br := bufio.NewReader(conn)
	var last Event
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
		m, err := decodeAfter(body, &last)
		if err != nil {
			return err
		}
		if m.Op == OpEvent {
			last = m.tail()
		}
		c.receive(conn, m)
	}
}

// receive routes one incoming message: events to Events, a reply to
// the request waiting on its Seq. A reply nobody waits for (late, or a
// duplicate of one already taken) is dropped.
func (c *Client) receive(conn net.Conn, m *Message) {
	switch m.Op {
	case OpEvent:
		// m is this read's alone, so its payload serves the event as is.
		c.deliver(m.head())
		for _, ev := range m.Records {
			c.deliver(ev)
		}
	case OpReply:
		c.mu.Lock()
		ch, ok := c.pending[m.Seq]
		if ok {
			delete(c.pending, m.Seq)
		}
		idle := len(c.pending) == 0
		c.mu.Unlock()
		if idle && !c.packet {
			// Last outstanding reply: disarm the read deadline so an
			// idle (possibly subscribed) connection is not torn down
			// by a deadline meant for this request.
			_ = conn.SetReadDeadline(time.Time{})
		}
		if ok {
			ch <- m
		}
	}
}

// deliver hands ev to Events, dropping and counting it when the
// channel is full.
func (c *Client) deliver(ev Event) {
	select {
	case c.events <- ev:
	default:
		c.eventsDropped.Add(1)
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

// do performs one request/reply exchange. force bypasses the ready
// gate; the reconnect loop uses it to probe a half-open connection.
func (c *Client) do(ctx context.Context, req *Message, force bool) (*Message, error) {
	c.mu.Lock()
	if c.closed {
		err := c.failErrOr(ErrClientClosed)
		c.mu.Unlock()
		return nil, err
	}
	if !force && !c.ready {
		err := c.failErrOr(ErrDisconnected)
		c.mu.Unlock()
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
	if c.packet {
		return c.exchange(ctx, conn, req, ch)
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
		return c.answer(req, m, ok)
	case <-ctx.Done():
		c.forget(req.Seq)
		return nil, ctx.Err()
	}
}

// exchange is do's datagram half: req goes out as one bare encoded
// datagram, and again each time the reply wait lapses while an
// idempotent request has retries left. Every copy carries the same
// Seq, so whichever reply comes first answers and the rest are dropped.
func (c *Client) exchange(ctx context.Context, conn net.Conn, req *Message, ch chan *Message) (*Message, error) {
	pkt := req.Encode()
	if len(pkt) > maxDatagram {
		c.forget(req.Seq)
		return nil, fmt.Errorf("rds: request of %d bytes exceeds datagram limit (use the TCP transport)", len(pkt))
	}
	attempts := 1
	if canRetry(req) {
		attempts += c.retries
	}
	wait := time.NewTimer(c.timeout)
	defer wait.Stop()
	var err error
	for range attempts {
		if _, err = conn.Write(pkt); err != nil {
			continue // a pending ICMP error, say: the attempt is spent
		}
		c.mu.Lock()
		c.bytesOut += uint64(len(pkt))
		c.mu.Unlock()
		wait.Reset(c.timeout)
		select {
		case m, ok := <-ch:
			return c.answer(req, m, ok)
		case <-ctx.Done():
			c.forget(req.Seq)
			return nil, ctx.Err()
		case <-wait.C:
			err = fmt.Errorf("no reply within %s", c.timeout)
		}
	}
	c.forget(req.Seq)
	return nil, fmt.Errorf("rds: datagram exchange failed after %d attempts: %w", attempts, err)
}

// answer turns what arrived on a request's reply channel into do's
// result: the reply, its failure, or the client's closing error.
func (c *Client) answer(req, m *Message, ok bool) (*Message, error) {
	if !ok {
		c.mu.Lock()
		defer c.mu.Unlock()
		return nil, c.failErrOr(ErrClientClosed)
	}
	if !m.OK {
		return nil, replyErr(req.Op, m)
	}
	return m, nil
}

// forget drops a request that will wait for no reply.
func (c *Client) forget(seq uint32) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// failErrOr is what a failed request reports: the recorded failure, or
// dflt when there is none. c.mu must be held.
func (c *Client) failErrOr(dflt error) error {
	if c.failErr != nil {
		return c.failErr
	}
	return dflt
}

// call performs one request. When its op-table row is idempotent and
// reconnect is enabled, it also waits out connection outages and
// re-sends req until ctx expires or the client closes; do stamps Seq,
// Principal and Digest afresh on every attempt.
func (c *Client) call(ctx context.Context, req *Message) (*Message, error) {
	for {
		m, err := c.do(ctx, req, false)
		if err == nil || c.rc == nil || !errors.Is(err, ErrDisconnected) || !canRetry(req) {
			return m, err
		}
		if werr := c.awaitConn(ctx); werr != nil {
			return nil, werr
		}
	}
}

// text performs req and returns its reply payload.
func (c *Client) text(ctx context.Context, req *Message) (string, error) {
	m, err := c.call(ctx, req)
	if err != nil {
		return "", err
	}
	return string(m.Payload), nil
}

// awaitConn blocks until the client is connected and ready, ctx is
// done, or the client terminates.
func (c *Client) awaitConn(ctx context.Context) error {
	for {
		c.mu.Lock()
		if c.closed {
			err := c.failErrOr(ErrClientClosed)
			c.mu.Unlock()
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
	_, err := c.call(ctx, &Message{Op: OpDelegate, Name: name, Lang: "dpl", Payload: []byte(source)})
	return err
}

// DelegateCompiled transfers a verified-bytecode artifact (an encoded
// dpl.CompiledProgram) to the server under name. The server admits it
// through the bytecode verifier instead of the source translator.
func (c *Client) DelegateCompiled(ctx context.Context, name string, program []byte) error {
	_, err := c.call(ctx, &Message{Op: OpDelegate, Name: name, Lang: LangCompiled, Payload: program})
	return err
}

// Instantiate starts an instance of dp calling entry(args...) and
// returns the new DPI id. Arguments are wire strings; see ParseArg for
// their interpretation server-side.
func (c *Client) Instantiate(ctx context.Context, dp, entry string, args ...string) (string, error) {
	m, err := c.call(ctx, &Message{Op: OpInstantiate, Name: dp, Entry: entry, Args: args})
	if err != nil {
		return "", err
	}
	return m.Name, nil
}

// Control applies suspend / resume / terminate to an instance.
func (c *Client) Control(ctx context.Context, dpiID, action string) error {
	_, err := c.call(ctx, &Message{Op: OpControl, Name: dpiID, Entry: action})
	return err
}

// Send delivers a message to an instance's mailbox. The events the
// message sets off may arrive before Send returns: past the 256 that
// Events buffers, only a reader on another goroutine keeps them.
func (c *Client) Send(ctx context.Context, dpiID, payload string) error {
	_, err := c.call(ctx, &Message{Op: OpSend, Name: dpiID, Payload: []byte(payload)})
	return err
}

// Query fetches instance status; empty dpiID lists all instances.
func (c *Client) Query(ctx context.Context, dpiID string) ([]InfoRec, error) {
	m, err := c.call(ctx, &Message{Op: OpQuery, Name: dpiID})
	if err != nil {
		return nil, err
	}
	return m.Infos, nil
}

// DeleteDP removes a program from the server's repository.
func (c *Client) DeleteDP(ctx context.Context, name string) error {
	_, err := c.call(ctx, &Message{Op: OpDeleteDP, Name: name})
	return err
}

// Eval performs one-shot remote evaluation: the program is translated,
// entry(args...) runs to completion, its rendered result returns in the
// reply, and the server retains nothing. This is the REV-style
// delegation+invocation-in-one-action the paper contrasts with full
// delegation.
func (c *Client) Eval(ctx context.Context, source, entry string, args ...string) (string, error) {
	return c.text(ctx, &Message{Op: OpEval, Entry: entry, Payload: []byte(source), Args: args})
}

// Subscribe asks the server to forward events from DPIs whose id starts
// with filter (empty = all) onto this connection's Events stream. The
// first successful subscription is replayed automatically after every
// reconnect.
func (c *Client) Subscribe(ctx context.Context, filter string) error {
	_, err := c.call(ctx, &Message{Op: OpSubscribe, Name: filter})
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
// text exposition format.
func (c *Client) Stats(ctx context.Context) (string, error) {
	return c.text(ctx, &Message{Op: OpStats, Entry: "metrics"})
}

// TenantStatus fetches the server's per-tenant audit/billing table as
// a JSON document (default quota plus one row per known tenant).
func (c *Client) TenantStatus(ctx context.Context) (string, error) {
	return c.text(ctx, &Message{Op: OpStats, Entry: "tenants"})
}

// ViewStatus fetches the server's maintained-view status document
// (views, row counts, maintenance counters) as JSON.
func (c *Client) ViewStatus(ctx context.Context) (string, error) {
	return c.text(ctx, &Message{Op: OpView, Entry: "status"})
}

// ViewDefine installs (or replaces) an incrementally-maintained view
// from VDL source, returning the server's JSON definition record.
func (c *Client) ViewDefine(ctx context.Context, src string) (string, error) {
	return c.text(ctx, &Message{Op: OpView, Entry: "define", Payload: []byte(src)})
}

// ViewQuery fetches one maintained view's current rows as JSON.
func (c *Client) ViewQuery(ctx context.Context, name string) (string, error) {
	return c.text(ctx, &Message{Op: OpView, Entry: "query", Name: name})
}

// Trace fetches up to max recent delegation-lifecycle spans from the
// server's trace ring as a JSON array (max <= 0 fetches all retained).
func (c *Client) Trace(ctx context.Context, max int) (string, error) {
	req := &Message{Op: OpStats, Entry: "trace"}
	if max > 0 {
		req.Name = strconv.Itoa(max)
	}
	return c.text(ctx, req)
}
