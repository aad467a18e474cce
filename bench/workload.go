package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mbd/bench/gen"
	"mbd/internal/oid"
	"mbd/internal/rds"
	"mbd/internal/snmp"
)

// opDeadline bounds every client call and every wait for an event.
const opDeadline = 2 * time.Second

// coldOpsPerSecond sizes delegate_cold's round. Its latency and the
// server's RSS rise with the number of finished instances, so the round is
// a fixed count of ops, not a fixed time: the history a round builds is
// part of its input and must not depend on how fast the machine is. The
// count is this rate times the round's seconds; at the prototype's 0.55 ms
// an op the loop then runs for about half of them.
const coldOpsPerSecond = 800

var (
	oidRoot    = oid.MustParse("1.3.6.1")
	oidSysName = oid.MustParse("1.3.6.1.2.1.1.5.0")
)

// workload is one closed loop over one connection.
type workload struct {
	name string
	// warmup is the fixed count of ops run before the measured window.
	// They are part of set-up time.
	warmup int
	// fixedOps returns the round's op count for a workload whose round is
	// a count; nil means the round is timed.
	fixedOps func(roundSeconds float64) int
	// prepare generates inputs for n ops before any clock starts.
	prepare func(s *session, n int)
	// setup delegates whatever must be resident before the first op; nil
	// when nothing must.
	setup func(s *session) error
	// op runs op i and checks its output. ok=false counts one failed op;
	// a non-nil error ends the round.
	op func(s *session, i int, rec *recorder) (ok bool, err error)
	// check tests the invariants that hold over a whole measured window.
	check func(s *session, ops int, before, after scrape) []string
	// roundTrips is how many RDS request/reply exchanges one op blocks on.
	roundTrips int
	// covered is the part of one op, in µs, that the layer probes in m can
	// account for besides those exchanges: the probe cost of each layer on
	// the op's blocking path. ops is the window's op count.
	covered func(m map[string]float64, ops int) float64
}

var workloads = []*workload{
	{
		name:       "delegate_cold",
		warmup:     100,
		fixedOps:   func(sec float64) int { return max(int(coldOpsPerSecond*sec), 1) },
		prepare:    func(s *session, n int) { s.prepareCold(n) },
		op:         func(s *session, i int, rec *recorder) (bool, error) { return s.coldCycle(s.cold[i], i, rec) },
		check:      checkCold,
		roundTrips: 2,
		// Admission of a new source, then an instantiate-to-exit whose cost
		// grows with history (taken at the window's middle), then two events.
		covered: func(m map[string]float64, ops int) float64 {
			inst := m["elastic.instantiate_us_h0"] + m["elastic.history_slope_ns_per_dpi"]/1e3*float64(ops)/2
			return m["elastic.admit_cold_us"] + inst + 2*m["rds.event_marginal_us"]
		},
	},
	{
		name:       "agent_rpc",
		warmup:     200,
		setup:      func(s *session) error { return s.resident("rpcagent", s.in.RPCAgent()) },
		op:         func(s *session, i int, rec *recorder) (bool, error) { return s.rpcOp(i, rec) },
		check:      checkNoDrops,
		roundTrips: 1,
		// The mailbox hand-off, the agent's body on the VM, one event back.
		covered: func(m map[string]float64, _ int) float64 {
			return m["elastic.mailbox_rtt_us"] + m["dpl.vm.run_us"] + m["rds.event_marginal_us"]
		},
	},
	{
		name:   "table_stream",
		warmup: 100,
		setup:  func(s *session) error { return s.resident("tableagent", gen.TableAgent()) },
		op: func(s *session, i int, rec *recorder) (bool, error) {
			return s.streamOp(s.in.Nonce(i), gen.TableRows, i, rec)
		},
		check:      checkNoDrops,
		roundTrips: 1,
		covered: func(m map[string]float64, _ int) float64 {
			perRow := (m["elastic.emit_ns"] + m["rds.codec.encode_ns"] + m["rds.codec.decode_ns"]) / 1e3
			return m["elastic.mailbox_rtt_us"] + gen.TableRows*perRow
		},
	},
	{
		name:       "snmp_poll",
		warmup:     2000,
		op:         func(s *session, i int, rec *recorder) (bool, error) { return s.pollOp(i, rec) },
		check:      checkPoll,
		roundTrips: 0,
		// Request and response are each encoded once and decoded once. No
		// probe sees the UDP loopback hop itself, so this reads low.
		covered: func(m map[string]float64, _ int) float64 {
			return (2*m["snmp.codec.encode_ns"] + 2*m["snmp.codec.decode_ns"] + m["snmp.handle_getnext_ns"]) / 1e3
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// session is the manager side of one round: the load connection, the idle
// control connection used only for stats scrapes, the SNMP socket, and the
// state the per-op checks carry from one op to the next.
type session struct {
	in   *gen.Inputs
	load *rds.Client
	ctl  *rds.Client
	udp  *snmp.UDPTripper
	snmp *snmp.Client

	timer *time.Timer
	// eventsSeen counts every event received; windowEvents is the part
	// that arrived inside the measured window, set when the window closes.
	eventsSeen   int
	windowEvents int

	cold    []gen.Cold
	agentID string
	prefix  []byte // reused row-prefix scratch

	// agent_rpc: the sums of the previous report, which may never decrease.
	lastSums [4]int64

	// snmp_poll: where the walk stands, how many instances this walk and
	// the previous complete one returned, and the wrapped round tripper's
	// timestamps for the traced round.
	cursor       oid.OID
	walkCount    int
	walkExpected int
	rtStart      time.Time
	rtEnd        time.Time
}

func newAuth() *rds.Authenticator {
	a := rds.NewAuthenticator()
	a.SetSecret(principal, secret)
	return a
}

// connect opens the session's sockets and subscribes the load connection
// to every DPI's events; the caller closes the session on any outcome.
// traced wraps the SNMP round tripper so the encode, wire and decode parts
// of a GetNext can be told apart.
func (s *session) connect(srv *server, traced bool) error {
	var err error
	if s.load, err = rds.Dial(srv.rdsAddr, principal, rds.WithAuth(newAuth())); err != nil {
		return err
	}
	if s.ctl, err = rds.Dial(srv.rdsAddr, principal, rds.WithAuth(newAuth())); err != nil {
		return err
	}
	if s.udp, err = snmp.DialUDP(srv.snmpAddr); err != nil {
		return err
	}
	var rt snmp.RoundTripper = s.udp
	if traced {
		rt = snmp.RoundTripperFunc(func(ctx context.Context, req []byte) ([]byte, error) {
			s.rtStart = time.Now()
			resp, err := s.udp.RoundTrip(ctx, req)
			s.rtEnd = time.Now()
			return resp, err
		})
	}
	// No retransmissions: a lost datagram must show as a failed op.
	s.snmp = snmp.NewClient(rt, community, snmp.WithTimeout(opDeadline), snmp.WithRetries(0))
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	return s.load.Subscribe(ctx, "")
}

// newSession allocates a session for in with no sockets yet, so inputs
// can be generated before any clock starts.
func newSession(in *gen.Inputs) *session {
	s := &session{in: in, timer: time.NewTimer(time.Hour), cursor: oidRoot}
	s.timer.Stop()
	return s
}

func (s *session) close() {
	if s.load != nil {
		s.load.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	if s.udp != nil {
		s.udp.Close()
	}
}

// scrape reads the server's registry over the idle control connection.
func (s *session) scrape() (scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	text, err := s.ctl.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats scrape: %w", err)
	}
	return parseScrape(text), nil
}

// wireBytes is the load traffic so far, client out plus in, on whichever
// socket the workload uses.
func (s *session) wireBytes() uint64 {
	out, in := s.load.Bytes()
	st := s.snmp.Stats()
	return out + in + st.BytesSent + st.BytesRcvd
}

var errEventTimeout = errors.New("timed out waiting for an event")

// nextEvent returns the load connection's next event, waiting until
// deadline. A closed stream means the connection is gone.
func (s *session) nextEvent(deadline time.Time) (rds.Event, error) {
	var ev rds.Event
	var open bool
	select {
	case ev, open = <-s.load.Events():
	default:
		// Nothing queued: only now pay for arming the timer.
		s.timer.Reset(time.Until(deadline))
		defer s.timer.Stop()
		select {
		case ev, open = <-s.load.Events():
		case <-s.timer.C:
			return rds.Event{}, errEventTimeout
		}
	}
	if !open {
		return rds.Event{}, errors.New("event stream closed: connection to the server lost")
	}
	s.eventsSeen++
	return ev, nil
}

// resync discards whatever events a failed op left behind, so the next op
// starts from a quiet stream.
func (s *session) resync() {
	deadline := time.Now().Add(50 * time.Millisecond)
	for {
		if _, err := s.nextEvent(deadline); err != nil {
			return
		}
	}
}

// opFailed classifies an error from a client call. The server refusing or
// failing one request is a failed op; anything else (lost connection,
// deadline) ends the round.
func opFailed(err error) (ok bool, fatal error) {
	var remote *rds.RemoteError
	var reject *rds.RejectError
	if errors.As(err, &remote) || errors.As(err, &reject) || errors.Is(err, errEventTimeout) {
		return false, nil
	}
	return false, err
}

// start delegates and starts one long-lived agent and remembers its id.
func (s *session) start(name, source string) error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	if err := s.load.Delegate(ctx, name, source); err != nil {
		return err
	}
	id, err := s.load.Instantiate(ctx, name, "main")
	s.agentID = id
	return err
}

// resident starts an agent and waits for the "ready" report it sends once
// it is parked in recv.
func (s *session) resident(name, source string) error {
	if err := s.start(name, source); err != nil {
		return err
	}
	ev, err := s.nextEvent(time.Now().Add(opDeadline))
	if err != nil {
		return err
	}
	if ev.DPI != s.agentID || ev.Kind != "report" || ev.Payload != "ready" {
		return fmt.Errorf("agent %s: want its ready report, got %s %s %q", s.agentID, ev.DPI, ev.Kind, ev.Payload)
	}
	return nil
}

// queryOne asks for the status of the session's one agent: the cheapest
// authenticated request/reply exchange the protocol has.
func (s *session) queryOne() error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	infos, err := s.load.Query(ctx, s.agentID)
	if err == nil && len(infos) != 1 {
		err = fmt.Errorf("query %s: %d records, want 1", s.agentID, len(infos))
	}
	return err
}

func (s *session) prepareCold(n int) {
	s.cold = make([]gen.Cold, n)
	for i := range s.cold {
		s.cold[i] = s.in.Cold(i)
	}
}

// coldCycle is delegate_cold's op: Delegate, Instantiate, the instance's
// report, its exit. The report must carry the program's own tag and the
// exit payload must be the program's return value.
func (s *session) coldCycle(c gen.Cold, i int, rec *recorder) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	var t1, t2, t3 time.Time
	t0 := time.Now()
	if err := s.load.Delegate(ctx, c.Name, c.Source); err != nil {
		return opFailed(err)
	}
	if rec != nil {
		t1 = time.Now()
	}
	id, err := s.load.Instantiate(ctx, c.Name, "main")
	if err != nil {
		return opFailed(err)
	}
	if rec != nil {
		t2 = time.Now()
	}
	deadline := t0.Add(opDeadline)
	report, err := s.nextEvent(deadline)
	if err != nil {
		return opFailed(err)
	}
	if rec != nil {
		t3 = time.Now()
	}
	exit, err := s.nextEvent(deadline)
	if err != nil {
		return opFailed(err)
	}
	if rec != nil {
		t4 := time.Now()
		rec.add(i, stepDelegate, t0, t1)
		rec.add(i, stepInstantiate, t1, t2)
		rec.add(i, stepFirstEvent, t2, t3)
		rec.add(i, stepExit, t3, t4)
	}
	ok := report.DPI == id && report.Kind == "report" && strings.HasPrefix(report.Payload, c.Tag+" score=") &&
		exit.DPI == id && exit.Kind == "exit" && exit.Payload == c.Return
	if !ok {
		s.resync()
	}
	return ok, nil
}

// rpcOp is agent_rpc's op: Send a nonce, get one computed report back. The
// report must carry the nonce, count 68 ifTable cells, and its four sums
// over counters may never go down.
func (s *session) rpcOp(i int, rec *recorder) (bool, error) {
	nonce := s.in.Nonce(i)
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	t0 := time.Now()
	if err := s.load.Send(ctx, s.agentID, nonce); err != nil {
		return opFailed(err)
	}
	t1 := t0
	if rec != nil {
		t1 = time.Now()
	}
	ev, err := s.nextEvent(t0.Add(opDeadline))
	if err != nil {
		return opFailed(err)
	}
	if rec != nil {
		rec.add(i, stepSend, t0, t1)
		rec.add(i, stepReport, t1, time.Now())
	}
	ok := ev.DPI == s.agentID && ev.Kind == "report" && s.checkRPCReport(nonce, ev.Payload)
	if !ok {
		s.resync()
	}
	return ok, nil
}

// checkRPCReport parses "nonce n=68 in=.. out=.. ipk=.. opk=.. h=..".
func (s *session) checkRPCReport(nonce, payload string) bool {
	f := strings.Fields(payload)
	if len(f) != 7 || f[0] != nonce || f[1] != "n="+strconv.Itoa(gen.IfTableCells) || !strings.HasPrefix(f[6], "h=") {
		return false
	}
	for k, key := range [4]string{"in=", "out=", "ipk=", "opk="} {
		num, found := strings.CutPrefix(f[2+k], key)
		if !found {
			return false
		}
		v, err := strconv.ParseInt(num, 10, 64)
		if err != nil || v < s.lastSums[k] {
			return false
		}
		s.lastSums[k] = v
	}
	return true
}

// streamOp is table_stream's op: Send "nonce:rows", then rows 0..rows-1
// must arrive in order, each carrying the nonce and its index.
func (s *session) streamOp(nonce string, rows, i int, rec *recorder) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	req := nonce + ":" + strconv.Itoa(rows)
	t0 := time.Now()
	if err := s.load.Send(ctx, s.agentID, req); err != nil {
		return opFailed(err)
	}
	var t1, tFirst time.Time
	if rec != nil {
		t1 = time.Now()
	}
	deadline := t0.Add(opDeadline)
	ok := true
	for j := 0; j < rows; j++ {
		ev, err := s.nextEvent(deadline)
		if err != nil {
			return opFailed(err)
		}
		if rec != nil && j == 0 {
			tFirst = time.Now()
		}
		s.prefix = append(append(s.prefix[:0], nonce...), ' ')
		s.prefix = append(strconv.AppendInt(s.prefix, int64(j), 10), ' ')
		p := ev.Payload
		if ev.DPI != s.agentID || ev.Kind != "report" || len(p) < len(s.prefix) || p[:len(s.prefix)] != string(s.prefix) {
			ok = false
		}
	}
	if rec != nil {
		rec.add(i, stepSend, t0, t1)
		rec.add(i, stepFirstRow, t1, tFirst)
		rec.add(i, stepLastRow, tFirst, time.Now())
	}
	if !ok {
		s.resync()
	}
	return ok, nil
}

// pollOp is snmp_poll's op: one GetNext of a walk that starts again at
// 1.3.6.1 each time it falls off the end of the MIB. Returned OIDs must
// strictly increase, sysName must be the name the server was started with,
// and every walk must find as many instances as the one before.
func (s *session) pollOp(i int, rec *recorder) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	t0 := time.Now()
	vbs, err := s.snmp.GetNext(ctx, s.cursor)
	if rec != nil {
		t1 := time.Now()
		rec.add(i, stepSNMPEncode, t0, s.rtStart)
		rec.add(i, stepSNMPRTT, s.rtStart, s.rtEnd)
		rec.add(i, stepSNMPDecode, s.rtEnd, t1)
	}
	if err != nil {
		var re *snmp.RequestError
		if !errors.As(err, &re) {
			return false, err
		}
		// The agent answered with an error status. At the end of the MIB
		// that is how a walk ends; anywhere else the op failed.
		ok := re.Status == snmp.NoSuchName && s.walkCount > 0 &&
			(s.walkExpected == 0 || s.walkCount == s.walkExpected)
		s.walkExpected, s.walkCount, s.cursor = s.walkCount, 0, oidRoot
		return ok, nil
	}
	vb := vbs[0]
	ok := vb.Name.Compare(s.cursor) > 0
	if ok && vb.Name.Compare(oidSysName) == 0 {
		ok = string(vb.Value.Bytes) == deviceName
	}
	if !ok {
		s.cursor, s.walkCount = oidRoot, 0
		return false, nil
	}
	s.cursor = vb.Name
	s.walkCount++
	return true, nil
}

// checkNoDrops holds for every RDS workload: each event a DPI emitted
// reached the client, unless the server counted it as dropped or shed.
func checkNoDrops(s *session, ops int, before, after scrape) []string {
	if n := silentDrops(before, after, s.windowEvents); n != 0 {
		return []string{fmt.Sprintf("%v events emitted by DPIs never reached the client and were not counted as dropped or shed", n)}
	}
	return nil
}

// silentDrops is events emitted minus events received, dropped or shed.
func silentDrops(before, after scrape, received int) float64 {
	return delta(before, after, "elastic_events_emitted_total") - float64(received) -
		delta(before, after, "rds_events_dropped_total") - delta(before, after, "rds_events_shed_total")
}

// checkCold proves cold was cold: every op ran one full source analysis
// and stored one delegation, and the program cache never answered.
func checkCold(s *session, ops int, before, after scrape) []string {
	var bad []string
	for _, c := range []struct {
		series string
		want   float64
	}{
		{"elastic_source_analyses_total", float64(ops)},
		{"elastic_delegations_total", float64(ops)},
		{"elastic_progcache_hits_total", 0},
	} {
		if got := delta(before, after, c.series); got != c.want {
			bad = append(bad, fmt.Sprintf("%s moved by %v over %d ops, want %v", c.series, got, ops, c.want))
		}
	}
	return append(bad, checkNoDrops(s, ops, before, after)...)
}

// checkPoll proves the baseline touched nothing but snmp: apart from the
// harness's own stats scrapes, no RDS request arrived during the window.
func checkPoll(s *session, ops int, before, after scrape) []string {
	if got := rdsRequestsExcept(after, "stats") - rdsRequestsExcept(before, "stats"); got != 0 {
		return []string{fmt.Sprintf("rds_requests_total moved by %v during an SNMP-only window", got)}
	}
	return nil
}
