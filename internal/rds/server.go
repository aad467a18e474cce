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

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/obs"
)

// subscriberQueueDepth bounds each subscribed connection's pending
// event queue. When a manager falls this far behind, the oldest
// undelivered events are dropped (counted in ServerStats.EventsDropped)
// rather than letting the connection's write path backpressure every
// DPI's event emission.
const subscriberQueueDepth = 256

// TenantGate is the server's seam into the tenant ledger: per-principal
// request-rate admission and the weights driving overload shedding.
// *elastic.Tenants implements it; NewServer wires the process's own
// table by default.
type TenantGate interface {
	// AdmitRequest bills one dispatched request to principal, returning
	// a QUO005-coded error when the request should be shed.
	AdmitRequest(principal string) error
	// Weight is principal's shedding priority (higher sheds later).
	Weight(principal string) int
	// MaxActiveWeight is the highest weight among tenants with live
	// DPIs; under global event backpressure traffic below it is shed.
	MaxActiveWeight() int
}

// Server exposes an elastic process over the RDS protocol. Each
// connection is handled on its own goroutine; events from subscribed
// DPIs are pushed to the connection asynchronously through a bounded
// per-connection queue, so a slow manager never stalls the emitting
// instances. All counters are atomics — the message path takes no
// server-wide lock.
type Server struct {
	proc *elastic.Process
	auth *Authenticator

	// peers answers the federation operations (peer-join, heartbeat,
	// cascaded delegation, upstream report). Nil refuses them.
	peers PeerHandler

	// views answers OpView (status/define/query over maintained VDL
	// views). Nil refuses them.
	views ViewHandler

	// gate is the tenant ledger seam: request-rate shedding and the
	// weights behind event backpressure. Nil disables both; gateSet
	// distinguishes an explicit nil from the default wiring.
	gate    TenantGate
	gateSet bool

	// drainGrace > 0 turns shutdown into a drain: on ctx cancellation
	// each connection gets that long to finish its in-flight request
	// before its read path is cut, instead of being closed mid-reply.
	drainGrace time.Duration

	// queued and subscribers drive the global event high-water mark:
	// when total queued events pass 3/4 of aggregate queue capacity,
	// fan-out sheds the lowest-weight tenants' events first.
	queued      atomic.Int64
	subscribers atomic.Int64

	stats serverCounters

	reg    *obs.Registry
	tracer *obs.Tracer
	// ops indexes per-op request counters; opLat observes dispatch
	// latency. Both live on reg.
	ops   [opMax + 1]*obs.Counter
	opLat *obs.Histogram
}

// serverCounters is the lock-free backing store for ServerStats.
type serverCounters struct {
	requests      atomic.Uint64
	authFails     atomic.Uint64
	bytesIn       atomic.Uint64
	bytesOut      atomic.Uint64
	eventsSent    atomic.Uint64
	eventsDropped atomic.Uint64
	eventsShed    atomic.Uint64
	requestsShed  atomic.Uint64
	connsDrained  atomic.Uint64
}

// ServerStats counts server-side protocol activity.
type ServerStats struct {
	Requests   uint64
	AuthFails  uint64
	BytesIn    uint64
	BytesOut   uint64
	EventsSent uint64
	// EventsDropped counts events discarded because a subscriber's
	// bounded queue overflowed (drop-oldest-per-tenant policy).
	EventsDropped uint64
	// EventsShed counts events refused at fan-out by the global
	// high-water backpressure (lowest-weight tenants first).
	EventsShed uint64
	// RequestsShed counts requests refused by the per-principal
	// request-rate quota (QUO005).
	RequestsShed uint64
	// ConnsDrained counts connections shut down through the drain-grace
	// path instead of an immediate close.
	ConnsDrained uint64
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithObs publishes the server's counters on reg instead of the
// process's registry.
func WithObs(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.reg = reg }
}

// WithTracer records a request span per dispatched operation and backs
// the OpStats "trace" view. Nil (the default) disables both.
func WithTracer(tr *obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = tr }
}

// WithPeerHandler routes the federation operations (OpPeerJoin,
// OpPeerDelegate, OpPeerSync, OpPeerBundleStage,
// OpPeerBundleActivate) and the OpStats
// "federation" view to h — normally an internal/federation.Node.
// Without one (the default) peer traffic is refused with
// ErrNoFederation.
func WithPeerHandler(h PeerHandler) ServerOption {
	return func(s *Server) { s.peers = h }
}

// ViewHandler answers the OpView verbs — normally the internal/vdl.MCVA
// keeping views continuously materialized next to the agent. All three
// render JSON payloads.
type ViewHandler interface {
	StatusJSON() ([]byte, error)
	DefineJSON(src string) ([]byte, error)
	QueryJSON(name string) ([]byte, error)
}

// ErrNoViews reports a view operation sent to a server with no view
// engine configured.
var ErrNoViews = errors.New("rds: views not enabled on this server")

// WithViewHandler routes OpView to h. Without one (the default) view
// traffic is refused with ErrNoViews.
func WithViewHandler(h ViewHandler) ServerOption {
	return func(s *Server) { s.views = h }
}

// WithDrainGrace makes shutdown graceful: when the serve context is
// cancelled, each live connection gets d to finish its in-flight
// request and flush queued events before its read path is cut, instead
// of being closed mid-reply. Zero (the default) keeps the immediate
// close.
func WithDrainGrace(d time.Duration) ServerOption {
	return func(s *Server) { s.drainGrace = d }
}

// WithTenantGate overrides the tenant ledger seam (the default is the
// process's own Tenants table). Nil disables request-rate shedding and
// weighted event backpressure.
func WithTenantGate(g TenantGate) ServerOption {
	return func(s *Server) { s.gate = g; s.gateSet = true }
}

// NewServer wraps proc. auth may be nil to disable authentication. By
// default the server's counters join the process's registry (Config.Obs
// or its private default), so one scrape covers protocol and runtime.
func NewServer(proc *elastic.Process, auth *Authenticator, opts ...ServerOption) *Server {
	s := &Server{proc: proc, auth: auth}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = proc.Obs()
	}
	if !s.gateSet {
		s.gate = proc.Tenants()
	}
	s.instrument()
	return s
}

// instrument migrates the server's atomic counters onto the registry
// (reads are funneled through FuncCounters — the write path stays the
// same single atomic add) and registers the per-op request counters and
// dispatch-latency histogram.
func (s *Server) instrument() {
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"rds_auth_failures_total", "requests failing digest authentication", &s.stats.authFails},
		{"rds_bytes_in_total", "request frame bytes received", &s.stats.bytesIn},
		{"rds_bytes_out_total", "reply and event frame bytes sent", &s.stats.bytesOut},
		{"rds_events_sent_total", "event frames delivered to subscribers", &s.stats.eventsSent},
		{"rds_events_dropped_total", "events discarded on overflowing subscriber queues", &s.stats.eventsDropped},
		{"rds_events_shed_total", "events refused at fan-out by weighted backpressure", &s.stats.eventsShed},
		{"rds_requests_shed_total", "requests refused by the per-principal rate quota", &s.stats.requestsShed},
		{"rds_conns_drained_total", "connections shut down via the drain-grace path", &s.stats.connsDrained},
	} {
		s.reg.FuncCounter(c.name, c.help, c.v.Load)
	}
	for op := OpDelegate; op <= opMax; op++ {
		if reservedOp(op) {
			continue
		}
		s.ops[op] = s.reg.LabeledCounter("rds_requests_total",
			"RDS requests received, by operation", "op", op.String())
	}
	s.opLat = s.reg.Histogram("rds_op_duration_seconds", "per-request dispatch latency", nil)
}

// Obs returns the registry the server publishes on.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:      s.stats.requests.Load(),
		AuthFails:     s.stats.authFails.Load(),
		BytesIn:       s.stats.bytesIn.Load(),
		BytesOut:      s.stats.bytesOut.Load(),
		EventsSent:    s.stats.eventsSent.Load(),
		EventsDropped: s.stats.eventsDropped.Load(),
		EventsShed:    s.stats.eventsShed.Load(),
		RequestsShed:  s.stats.requestsShed.Load(),
		ConnsDrained:  s.stats.connsDrained.Load(),
	}
}

// droppedEvent accounts one discarded event: the aggregate counter plus
// the per-principal attribution series ("" renders as principal "_").
func (s *Server) droppedEvent(principal string, shed bool) {
	if shed {
		s.stats.eventsShed.Add(1)
	} else {
		s.stats.eventsDropped.Add(1)
	}
	if principal == "" {
		principal = "_"
	}
	s.reg.LabeledCounter("rds_events_dropped_total",
		"events discarded on overflowing subscriber queues", "principal", principal).Inc()
}

// Serve accepts connections on l until ctx is cancelled.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("rds: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ServeConn(ctx, conn)
		}()
	}
}

// connWriter serializes frame writes onto one connection. Frames are
// assembled (length prefix + body) in a reused buffer and written
// through a buffered writer; callers choose when to flush, so bursts
// of event frames coalesce into few syscalls while replies flush
// immediately.
type connWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte // reused frame-encode scratch
	err error  // sticky: once a write fails the connection is done
}

func newConnWriter(conn net.Conn) *connWriter {
	return &connWriter{bw: bufio.NewWriter(conn)}
}

// write encodes and queues one message frame, flushing when asked. It
// accounts the frame to the server's BytesOut.
func (cw *connWriter) write(s *Server, m *Message, flush bool) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return cw.err
	}
	frame, err := m.AppendFrame(cw.buf[:0])
	if err != nil {
		return err // oversized message; connection remains usable
	}
	cw.buf = frame
	if _, err := cw.bw.Write(frame); err != nil {
		cw.err = err
		return err
	}
	s.stats.bytesOut.Add(uint64(len(frame)))
	if flush {
		if err := cw.bw.Flush(); err != nil {
			cw.err = err
			return err
		}
	}
	return nil
}

// eventQueue is a bounded FIFO of pending subscriber events. push
// never blocks: when the ring is full an older event is discarded to
// make room, keeping DPI event emission decoupled from the subscriber
// connection's write speed. The victim is chosen per tenant, not per
// connection: a pushing principal with queued events overwrites its own
// oldest, otherwise the principal hogging the most queue slots loses
// its oldest — so one flooding tenant's burst can never evict a quiet
// tenant's events. glob, when set, mirrors the queue's occupancy into
// the server-wide queued gauge driving high-water shedding.
type eventQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []elastic.Event // ring storage
	head   int
	n      int
	counts map[string]int // queued events by principal
	glob   *atomic.Int64
	closed bool
}

func newEventQueue(depth int, glob *atomic.Int64) *eventQueue {
	q := &eventQueue{buf: make([]elastic.Event, depth), counts: make(map[string]int), glob: glob}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues ev; when the ring was full it returns the principal
// whose oldest event was dropped to make room (dropped true).
func (q *eventQueue) push(ev elastic.Event) (victim string, dropped bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", false
	}
	if q.n == len(q.buf) {
		victim = ev.Principal
		if q.counts[victim] == 0 {
			victim = q.hogLocked()
		}
		q.removeOldestLocked(victim)
		dropped = true
	} else if q.glob != nil {
		q.glob.Add(1)
	}
	q.buf[(q.head+q.n)%len(q.buf)] = ev
	q.n++
	q.counts[ev.Principal]++
	q.mu.Unlock()
	q.cond.Signal()
	return victim, dropped
}

// hogLocked returns the principal with the most queued events.
func (q *eventQueue) hogLocked() string {
	var hog string
	best := -1
	for pr, n := range q.counts {
		if n > best {
			hog, best = pr, n
		}
	}
	return hog
}

// removeOldestLocked deletes victim's oldest queued event, compacting
// the ring toward the head. O(n) on the overflow path only.
func (q *eventQueue) removeOldestLocked(victim string) {
	for i := 0; i < q.n; i++ {
		idx := (q.head + i) % len(q.buf)
		if q.buf[idx].Principal != victim {
			continue
		}
		// Shift the segment before idx forward one slot.
		for j := i; j > 0; j-- {
			to := (q.head + j) % len(q.buf)
			from := (q.head + j - 1) % len(q.buf)
			q.buf[to] = q.buf[from]
		}
		q.buf[q.head] = elastic.Event{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.decCountLocked(victim)
		return
	}
}

func (q *eventQueue) decCountLocked(pr string) {
	if c := q.counts[pr]; c <= 1 {
		delete(q.counts, pr)
	} else {
		q.counts[pr] = c - 1
	}
}

// pop dequeues the oldest event, blocking until one arrives or the
// queue closes. more reports whether further events are already
// waiting — the pump uses it to batch flushes.
func (q *eventQueue) pop() (ev elastic.Event, more, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return elastic.Event{}, false, false
	}
	ev = q.buf[q.head]
	q.buf[q.head] = elastic.Event{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.decCountLocked(ev.Principal)
	if q.glob != nil {
		q.glob.Add(-1)
	}
	return ev, q.n > 0, true
}

// close wakes the pump and makes further pushes no-ops. Events still
// queued are discarded.
func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	if q.glob != nil {
		q.glob.Add(-int64(q.n))
	}
	q.n = 0
	q.counts = make(map[string]int)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// overloaded reports whether an event from principal should be shed at
// fan-out: total queued events are past the global high-water mark
// (3/4 of aggregate subscriber queue capacity) and the principal's
// weight is below the heaviest active tenant's — lowest-weight traffic
// sheds first, synthetic platform events (empty principal) never shed.
func (s *Server) overloaded(principal string) bool {
	if s.gate == nil || principal == "" {
		return false
	}
	subs := s.subscribers.Load()
	if subs == 0 {
		return false
	}
	if s.queued.Load() < subs*subscriberQueueDepth*3/4 {
		return false
	}
	return s.gate.Weight(principal) < s.gate.MaxActiveWeight()
}

// pumpEvents drains q onto cw until the queue closes, flushing only
// when the queue momentarily runs dry so event bursts batch.
func (s *Server) pumpEvents(q *eventQueue, cw *connWriter, done chan<- struct{}) {
	defer close(done)
	for {
		ev, more, ok := q.pop()
		if !ok {
			return
		}
		msg := Message{
			Op:        OpEvent,
			Name:      ev.DPI,
			Entry:     ev.Kind.String(),
			Payload:   []byte(ev.Payload),
			TimeMS:    ev.Time.Milliseconds(),
			Principal: ev.Principal,
		}
		if cw.write(s, &msg, !more) == nil {
			s.stats.eventsSent.Add(1)
		}
	}
}

// ServeConn runs the RDS exchange on one connection until EOF or ctx
// cancellation. The connection is closed on return.
func (s *Server) ServeConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Dispatches run under dctx. With a drain grace it is decoupled
	// from the serve context: a shutdown must not cancel the request
	// already in flight — that one gets its reply; dctx dies only when
	// this connection actually winds down.
	dctx := ctx
	if s.drainGrace > 0 {
		var dcancel context.CancelFunc
		dctx, dcancel = context.WithCancel(context.WithoutCancel(ctx))
		defer dcancel()
	}
	// connDone closes before the deferred cancel fires, so the watcher
	// can tell a server-initiated shutdown from this connection's own
	// exit (which must not count as a drain).
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-connDone:
			return
		case <-ctx.Done():
		}
		select {
		case <-connDone:
			return
		default:
		}
		if s.drainGrace > 0 {
			// Drain: let the in-flight request finish and its reply
			// flush; the expiring read deadline then ends the loop.
			s.stats.connsDrained.Add(1)
			if s.tracer != nil {
				s.tracer.Record(conn.RemoteAddr().String(), obs.StageDrain,
					"drain grace "+s.drainGrace.String(), 0)
			}
			_ = conn.SetReadDeadline(time.Now().Add(s.drainGrace))
			return
		}
		conn.Close() // unblock the read loop
	}()

	cw := newConnWriter(conn)
	var (
		events      *eventQueue
		unsubscribe func()
		pumpDone    chan struct{}
	)
	defer func() {
		if unsubscribe != nil {
			unsubscribe()
		}
		if events != nil {
			events.close()
			<-pumpDone
			s.subscribers.Add(-1)
		}
	}()

	// One buffered reader per connection: a frame is a header read and a
	// body read, and pipelined requests arrive several to a segment.
	// Deadlines and Close act on conn underneath and surface through it.
	br := bufio.NewReader(conn)
	for {
		body, err := ReadFrame(br)
		if err != nil {
			return // EOF, cancellation, or peer error — all terminal
		}
		s.stats.requests.Add(1)
		s.stats.bytesIn.Add(uint64(FrameSize(body)))
		req, err := Decode(body)
		if err != nil {
			// Undecodable requests cannot be answered (no seq); drop
			// the connection as the stream is unsynchronized.
			return
		}
		if c := s.ops[req.Op]; c != nil {
			c.Inc()
		}
		if err := s.auth.Verify(req); err != nil {
			s.stats.authFails.Add(1)
			_ = cw.write(s, reply(req, nil, err), true)
			continue
		}
		if s.gate != nil && req.Principal != "" {
			if err := s.gate.AdmitRequest(req.Principal); err != nil {
				s.stats.requestsShed.Add(1)
				_ = cw.write(s, reply(req, nil, err), true)
				continue
			}
		}
		switch req.Op {
		case OpSubscribe:
			if events == nil {
				events = newEventQueue(subscriberQueueDepth, &s.queued)
				pumpDone = make(chan struct{})
				s.subscribers.Add(1)
				go s.pumpEvents(events, cw, pumpDone)
				q, filter := events, req.Name
				unsubscribe = s.proc.Subscribe(func(ev elastic.Event) {
					if filter != "" && !strings.HasPrefix(ev.DPI, filter) {
						return
					}
					if s.overloaded(ev.Principal) {
						s.droppedEvent(ev.Principal, true)
						return
					}
					if victim, dropped := q.push(ev); dropped {
						s.droppedEvent(victim, false)
					}
				})
			}
			_ = cw.write(s, reply(req, nil, nil), true)
		default:
			start := time.Now()
			resp := s.dispatch(dctx, req)
			dur := time.Since(start)
			s.opLat.Observe(dur)
			if s.tracer != nil {
				// Guarded so the detail concat never allocates on the
				// untraced hot path.
				s.tracer.Record(req.Op.String(), obs.StageRequest, req.Principal+" "+req.Name, dur)
			}
			_ = cw.write(s, resp, true)
		}
	}
}

func reply(req *Message, fill func(*Message), err error) *Message {
	m := &Message{Op: OpReply, Seq: req.Seq, OK: err == nil}
	if err != nil {
		m.Error = err.Error()
		// Static-analysis rejections travel with their full structured
		// diagnostics so delegators can match on stable codes.
		var rej *elastic.RejectError
		if errors.As(err, &rej) {
			for _, d := range rej.Diags {
				m.Diags = append(m.Diags, DiagRec{
					Code:     d.Code,
					Severity: d.Sev.String(),
					Msg:      d.Msg,
					Line:     int64(d.Pos.Line),
					Col:      int64(d.Pos.Col),
				})
			}
		}
	} else if fill != nil {
		fill(m)
	}
	return m
}

// ParseArg converts a wire argument string to a DPL value: ints and
// floats when they parse, the bare words true/false/nil, a string
// otherwise. A leading "s:" forces string interpretation.
func ParseArg(s string) dpl.Value {
	if strings.HasPrefix(s, "s:") {
		return s[2:]
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	case "nil":
		return nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// evalTimeout bounds one-shot remote evaluations; a runaway eval must
// not hold a connection's request loop forever.
const evalTimeout = 60 * time.Second

// fanoutTimeout bounds one cascaded delegation end to end — every hop
// of the domain tree must answer within it.
const fanoutTimeout = 60 * time.Second

func (s *Server) dispatch(ctx context.Context, req *Message) *Message {
	switch req.Op {
	case OpDelegate:
		var err error
		if req.Lang == LangCompiled {
			err = s.proc.DelegateCompiled(req.Principal, req.Name, req.Payload)
		} else {
			err = s.proc.Delegate(req.Principal, req.Name, req.Lang, string(req.Payload))
		}
		return reply(req, nil, err)
	case OpInstantiate:
		args := make([]dpl.Value, len(req.Args))
		for i, a := range req.Args {
			args[i] = ParseArg(a)
		}
		d, err := s.proc.Instantiate(req.Principal, req.Name, req.Entry, args...)
		return reply(req, func(m *Message) { m.Name = d.ID }, err)
	case OpControl:
		err := s.proc.Control(req.Principal, req.Name, elastic.ControlAction(req.Entry))
		return reply(req, nil, err)
	case OpSend:
		err := s.proc.Send(req.Principal, req.Name, string(req.Payload))
		return reply(req, nil, err)
	case OpQuery:
		infos, err := s.proc.Query(req.Principal, req.Name)
		return reply(req, func(m *Message) {
			for _, inf := range infos {
				m.Infos = append(m.Infos, InfoRec{
					ID: inf.ID, DP: inf.DP, Entry: inf.Entry, State: inf.State,
					Steps: inf.Steps, Result: inf.Result, Err: inf.Err,
				})
			}
		}, err)
	case OpDeleteDP:
		err := s.proc.DeleteDP(req.Principal, req.Name)
		return reply(req, nil, err)
	case OpEval:
		args := make([]dpl.Value, len(req.Args))
		for i, a := range req.Args {
			args[i] = ParseArg(a)
		}
		ectx, cancel := context.WithTimeout(ctx, evalTimeout)
		defer cancel()
		v, err := s.proc.Evaluate(ectx, req.Principal, "dpl", string(req.Payload), req.Entry, args...)
		return reply(req, func(m *Message) { m.Payload = []byte(dpl.FormatValue(v)) }, err)
	case OpStats:
		return s.serveStats(req)
	case OpPeerJoin:
		if s.peers == nil {
			return reply(req, nil, ErrNoFederation)
		}
		err := s.peers.PeerJoin(req.Principal, req.Name, req.Entry, string(req.Payload))
		return reply(req, nil, err)
	case OpPeerDelegate:
		if s.peers == nil {
			return reply(req, nil, ErrNoFederation)
		}
		fctx, cancel := context.WithTimeout(ctx, fanoutTimeout)
		defer cancel()
		res, err := s.peers.PeerDelegate(fctx, req.Principal, req.Name, req.Lang,
			string(req.Payload), req.Entry, req.Args)
		if err == nil && res == nil {
			err = fmt.Errorf("rds: peer handler returned no fanout result")
		}
		return reply(req, func(m *Message) { m.Payload = res.Encode() }, err)
	case OpPeerSync:
		if s.peers == nil {
			return reply(req, nil, ErrNoFederation)
		}
		batch, err := DecodeSyncBatch(req.Payload)
		if err != nil {
			return reply(req, nil, err)
		}
		err = s.peers.PeerSync(req.Principal, req.Name, batch)
		return reply(req, nil, err)
	case OpPeerBundleStage:
		if s.peers == nil {
			return reply(req, nil, ErrNoFederation)
		}
		fctx, cancel := context.WithTimeout(ctx, fanoutTimeout)
		defer cancel()
		res, err := s.peers.PeerBundleStage(fctx, req.Principal, req.Name, req.Entry, req.Payload)
		if err == nil && res == nil {
			err = fmt.Errorf("rds: peer handler returned no stage result")
		}
		return reply(req, func(m *Message) { m.Payload = res.Encode() }, err)
	case OpPeerBundleActivate:
		if s.peers == nil {
			return reply(req, nil, ErrNoFederation)
		}
		fctx, cancel := context.WithTimeout(ctx, fanoutTimeout)
		defer cancel()
		res, err := s.peers.PeerBundleActivate(fctx, req.Principal, req.Name, req.Entry)
		if err == nil && res == nil {
			err = fmt.Errorf("rds: peer handler returned no fanout result")
		}
		return reply(req, func(m *Message) { m.Payload = res.Encode() }, err)
	case OpView:
		if s.views == nil {
			return reply(req, nil, ErrNoViews)
		}
		var b []byte
		var err error
		switch req.Entry {
		case "", "status":
			b, err = s.views.StatusJSON()
		case "define":
			b, err = s.views.DefineJSON(string(req.Payload))
		case "query":
			b, err = s.views.QueryJSON(req.Name)
		default:
			err = fmt.Errorf("rds: unknown view verb %q", req.Entry)
		}
		return reply(req, func(m *Message) { m.Payload = b }, err)
	default:
		return reply(req, nil, fmt.Errorf("rds: cannot serve %s", req.Op))
	}
}

// serveStats answers OpStats: the server's own telemetry, rendered as a
// text document in the reply payload. Entry selects the view.
func (s *Server) serveStats(req *Message) *Message {
	switch req.Entry {
	case "", "metrics":
		var sb strings.Builder
		if err := s.reg.WritePrometheus(&sb); err != nil {
			return reply(req, nil, err)
		}
		return reply(req, func(m *Message) { m.Payload = []byte(sb.String()) }, nil)
	case "trace":
		max := 0
		if req.Name != "" {
			n, err := strconv.Atoi(req.Name)
			if err != nil || n < 0 {
				return reply(req, nil, fmt.Errorf("rds: bad trace limit %q", req.Name))
			}
			max = n
		}
		var sb strings.Builder
		if err := s.tracer.WriteJSON(&sb, max); err != nil {
			return reply(req, nil, err)
		}
		return reply(req, func(m *Message) { m.Payload = []byte(sb.String()) }, nil)
	case "federation":
		if s.peers == nil {
			return reply(req, nil, ErrNoFederation)
		}
		doc, err := s.peers.StatusJSON()
		if err != nil {
			return reply(req, nil, err)
		}
		return reply(req, func(m *Message) { m.Payload = doc }, nil)
	case "tenants":
		doc, err := s.proc.TenantStatusJSON()
		if err != nil {
			return reply(req, nil, err)
		}
		return reply(req, func(m *Message) { m.Payload = doc }, nil)
	default:
		return reply(req, nil, fmt.Errorf("rds: unknown stats view %q", req.Entry))
	}
}
