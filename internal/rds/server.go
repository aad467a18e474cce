package rds

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/ber"
	"mbd/internal/elastic"
	"mbd/internal/obs"
)

// subscriberQueueDepth bounds each subscribed connection's pending
// event queue. When a manager falls this far behind, the oldest
// undelivered events are dropped (counted in rds_events_dropped_total)
// rather than letting the connection's write path backpressure every
// DPI's event emission.
const subscriberQueueDepth = 256

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

	// gate is the process's tenant ledger: request-rate shedding and
	// the weights behind event backpressure.
	gate *elastic.Tenants

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
	// ops indexes per-op request counters by code; opLat observes
	// dispatch latency. Both live on reg.
	ops   []*obs.Counter
	opLat *obs.Histogram
}

// serverCounters back the rds_* counters instrument registers.
type serverCounters struct {
	authFails     atomic.Uint64
	bytesIn       atomic.Uint64
	bytesOut      atomic.Uint64
	writes        atomic.Uint64
	eventsSent    atomic.Uint64
	eventsDropped atomic.Uint64
	eventsShed    atomic.Uint64
	requestsShed  atomic.Uint64
	connsDrained  atomic.Uint64
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

// WithPeerHandler routes every op-table row that needs federation (the
// peer ops and the stats "federation" view) to h — normally an
// internal/federation.Node. Without one (the default) they are refused
// with ErrNoFederation.
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

// NewServer wraps proc. auth may be nil to disable authentication. By
// default the server's counters join the process's registry (Config.Obs
// or its private default), so one scrape covers protocol and runtime.
func NewServer(proc *elastic.Process, auth *Authenticator, opts ...ServerOption) *Server {
	s := &Server{proc: proc, auth: auth, gate: proc.Tenants()}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = proc.Obs()
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
		{"rds_writes_total", "socket writes carrying reply and event frames", &s.stats.writes},
		{"rds_events_sent_total", "events delivered to subscribers", &s.stats.eventsSent},
		{"rds_events_dropped_total", "events discarded on overflowing subscriber queues or too large to frame", &s.stats.eventsDropped},
		{"rds_events_shed_total", "events refused at fan-out by weighted backpressure", &s.stats.eventsShed},
		{"rds_requests_shed_total", "requests refused by the per-principal rate quota", &s.stats.requestsShed},
		{"rds_conns_drained_total", "connections shut down via the drain-grace path", &s.stats.connsDrained},
	} {
		s.reg.FuncCounter(c.name, c.help, c.v.Load)
	}
	s.ops = make([]*obs.Counter, len(opTable))
	for op, spec := range opTable {
		if spec.name != "" {
			s.ops[op] = s.reg.LabeledCounter("rds_requests_total",
				"RDS requests received, by operation", "op", spec.name)
		}
	}
	s.opLat = s.reg.Histogram("rds_op_duration_seconds", "per-request dispatch latency", nil)
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
		"events discarded on overflowing subscriber queues or too large to frame", "principal", principal).Inc()
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

// maxRetainedOut bounds the output buffer a connection keeps between
// writes, so one large reply or event burst does not pin its size for
// the connection's lifetime.
const maxRetainedOut = 64 << 10

// connWriter serializes frame writes onto one connection. Frames are
// appended straight into one reused output buffer, and each call leaves
// in a single Write: one per reply, one per drained event batch.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	out  []byte
	err  error // sticky: once a write fails the connection is done
}

// reply writes one reply frame. A reply too large to frame is answered
// with an error reply under the same Seq rather than dropped, so the
// client never waits out its deadline for it.
func (cw *connWriter) reply(s *Server, m *Message) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	out, err := m.AppendFrame(cw.out[:0])
	if err != nil {
		out, _ = reply(m, err).AppendFrame(cw.out[:0])
	}
	cw.writeLocked(s, out)
}

// maxEventFrame is where a batched event frame closes: an event whose
// record would take the frame past it opens the next frame, in the same
// write. It matches maxRetainedOut, the buffer a connection keeps.
const maxEventFrame = maxRetainedOut

// events writes a drained batch in a single Write as batched OpEvent
// frames: the first event of a frame travels in the envelope, each later
// one as a record carrying only what changed (visitRecord), up to
// maxRecords records, maxEventFrame bytes or MaxFrame rebuilt payload
// bytes a frame. Decoding a frame yields exactly the Message whose
// AppendFrame gives its bytes. An event too large to frame even alone
// is counted dropped; the rest of its batch still goes.
func (cw *connWriter) events(s *Server, evs []elastic.Event) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	out, n := cw.out[:0], 0
	// The open frame: its length prefix's offset (-1: none), its open
	// envelope and record list (hasRecs), its record count, the payload
	// bytes its records may still rebuild and its last event.
	start, k, budget, hasRecs := -1, 0, 0, false
	var root, recs ber.Seq
	var prev Event
	end := func() {
		c := ber.Encoder(out)
		if hasRecs {
			c.End(recs)
		}
		c.End(root)
		if out = c.Bytes(); endFrame(out, start) != nil {
			// Only a frame's lone event can outgrow MaxFrame.
			out, n = out[:start], n-1
			s.droppedEvent(prev.Principal, false)
		}
	}
	for i := range evs {
		ev := Event{DPI: evs[i].DPI, Kind: evs[i].Kind.String(), Payload: evs[i].Payload,
			TimeMS: evs[i].Time.Milliseconds(), Principal: evs[i].Principal}
		if start >= 0 {
			if k < maxRecords {
				mark, opened := len(out), !hasRecs
				c := ber.Encoder(out)
				if opened {
					recs, hasRecs = c.Begin(ber.TagSequence), true
				}
				left := budget
				visitRecord(&c, &prev, &ev, &left)
				if out = c.Bytes(); c.Err() == nil && len(out)-start <= maxEventFrame {
					prev, n, k, budget = ev, n+1, k+1, left
					continue
				}
				// Too big: take the record back (and the list, if it
				// opened for this record) and close the frame without it.
				out, hasRecs = out[:mark], !opened
			}
			end()
		}
		start, prev, n, k, budget = len(out), ev, n+1, 0, MaxFrame
		c := ber.Encoder(append(out, 0, 0, 0, 0))
		head := Message{Op: OpEvent, Name: ev.DPI, Entry: ev.Kind, Payload: stringBytes(ev.Payload), TimeMS: ev.TimeMS, Principal: ev.Principal}
		root, hasRecs = head.visitHead(&c), false
		out = c.Bytes()
	}
	if start >= 0 {
		end()
	}
	if cw.writeLocked(s, out) {
		s.stats.eventsSent.Add(uint64(n))
	}
}

// writeLocked writes out and accounts it, reporting success. The
// buffer is kept for the next call unless it grew past maxRetainedOut.
func (cw *connWriter) writeLocked(s *Server, out []byte) bool {
	if cw.err == nil && len(out) > 0 {
		if _, cw.err = cw.conn.Write(out); cw.err == nil {
			s.stats.writes.Add(1)
			s.stats.bytesOut.Add(uint64(len(out)))
		}
	}
	if cap(out) > maxRetainedOut {
		out = nil
	}
	cw.out = out[:0]
	return cw.err == nil
}

// eventQueue is a bounded FIFO of pending subscriber events. push
// never blocks: when the ring is full an older event is discarded to
// make room, keeping DPI event emission decoupled from the subscriber
// connection's write speed. The victim is chosen per tenant, not per
// connection: a pushing principal with queued events overwrites its own
// oldest, otherwise the principal hogging the most queue slots loses
// its oldest — so one flooding tenant's burst can never evict a quiet
// tenant's events. Only an overflow looks at who queued what, by
// scanning the ring. glob, when set, mirrors the queue's occupancy into
// the server-wide queued gauge driving high-water shedding.
type eventQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []elastic.Event // ring storage
	head   int
	n      int
	tally  map[string]int // victimLocked's scratch, empty between overflows
	glob   *atomic.Int64
	closed bool
}

func newEventQueue(depth int, glob *atomic.Int64) *eventQueue {
	q := &eventQueue{buf: make([]elastic.Event, depth), glob: glob}
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
		var at int
		victim, at = q.victimLocked(ev.Principal)
		q.removeLocked(at)
		dropped = true
	} else if q.glob != nil {
		q.glob.Add(1)
	}
	q.buf[(q.head+q.n)%len(q.buf)] = ev
	q.n++
	q.mu.Unlock()
	q.cond.Signal()
	return victim, dropped
}

// at returns the i-th queued event, counting from the oldest.
func (q *eventQueue) at(i int) *elastic.Event { return &q.buf[(q.head+i)%len(q.buf)] }

// victimLocked picks whose oldest event a push by pusher into the full
// ring drops, and returns that event's position: pusher's own when it
// has one queued, else the principal with the most queued events, ties
// going to the one whose oldest event comes first. O(n), on the
// overflow path only.
func (q *eventQueue) victimLocked(pusher string) (string, int) {
	for i := range q.n {
		if q.at(i).Principal == pusher {
			return pusher, i
		}
	}
	if q.tally == nil {
		q.tally = make(map[string]int)
	}
	defer clear(q.tally)
	most := 0
	for i := range q.n {
		pr := q.at(i).Principal
		q.tally[pr]++
		most = max(most, q.tally[pr])
	}
	for i := range q.n {
		if pr := q.at(i).Principal; q.tally[pr] == most {
			return pr, i
		}
	}
	return "", 0 // unreachable: the ring is full
}

// removeLocked deletes the i-th queued event, compacting the ring
// toward the head.
func (q *eventQueue) removeLocked(i int) {
	for ; i > 0; i-- {
		*q.at(i) = *q.at(i - 1)
	}
	q.buf[q.head] = elastic.Event{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// drain appends every queued event to dst under one lock acquisition,
// blocking until one arrives; it returns dst unchanged once the queue
// closes. Before it takes the batch it yields the processor once, so a
// producer in the middle of a burst can queue more of it: the burst
// leaves in fewer, larger batches instead of the pump chasing it.
func (q *eventQueue) drain(dst []elastic.Event) []elastic.Event {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	q.mu.Unlock()
	runtime.Gosched()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return dst
	}
	first := q.buf[q.head:min(q.head+q.n, len(q.buf))]
	wrapped := q.buf[:q.n-len(first)]
	dst = append(append(dst, first...), wrapped...)
	clear(first)
	clear(wrapped)
	if q.glob != nil {
		q.glob.Add(-int64(q.n))
	}
	q.head, q.n = 0, 0
	return dst
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
	q.mu.Unlock()
	q.cond.Broadcast()
}

// overloaded reports whether an event from principal should be shed at
// fan-out: total queued events are past the global high-water mark
// (3/4 of aggregate subscriber queue capacity) and the principal's
// weight is below the heaviest active tenant's — lowest-weight traffic
// sheds first, synthetic platform events (empty principal) never shed.
func (s *Server) overloaded(principal string) bool {
	if principal == "" {
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

// pumpEvents drains q onto cw until the queue closes: every event
// queued by the time the pump wakes leaves in one write.
func (s *Server) pumpEvents(q *eventQueue, cw *connWriter, done chan<- struct{}) {
	defer close(done)
	for batch := q.drain(nil); len(batch) > 0; batch = q.drain(batch[:0]) {
		cw.events(s, batch)
		clear(batch) // release payloads while the pump waits
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

	cw := &connWriter{conn: conn}
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
		s.stats.bytesIn.Add(uint64(FrameSize(body)))
		req, err := Decode(body)
		if err != nil {
			// Undecodable requests cannot be answered (no seq); drop
			// the connection as the stream is unsynchronized.
			return
		}
		resp := s.handle(dctx, req)
		if req.Op == OpSubscribe && resp.OK && events == nil {
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
		cw.reply(s, resp)
	}
}

// handle answers one decoded request; both transports serve through it.
// It counts the op, verifies the digest, applies the tenant request
// gate, dispatches through the op table, and records the dispatch
// latency and a request span.
func (s *Server) handle(ctx context.Context, req *Message) *Message {
	s.ops[req.Op].Inc()
	if err := s.auth.Verify(req); err != nil {
		s.stats.authFails.Add(1)
		return reply(req, err)
	}
	if req.Principal != "" {
		if err := s.gate.AdmitRequest(req.Principal); err != nil {
			s.stats.requestsShed.Add(1)
			return reply(req, err)
		}
	}
	start := time.Now()
	resp := s.dispatch(ctx, req)
	dur := time.Since(start)
	s.opLat.Observe(dur)
	if s.tracer != nil {
		// Guarded so the detail concat never allocates on the untraced
		// hot path.
		s.tracer.Record(req.Op.String(), obs.StageRequest, req.Principal+" "+req.Name, dur)
	}
	return resp
}

// reply answers req with the failure err.
func reply(req *Message, err error) *Message {
	m := &Message{Op: OpReply, Seq: req.Seq, Error: err.Error()}
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
	return m
}

// ParseArg converts a wire argument string to the Go value of a DPL
// entry argument (see dpl.FromGo): ints and floats when they parse, the
// bare words true/false/nil, a string otherwise. A leading "s:" forces
// string interpretation.
func ParseArg(s string) any {
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
