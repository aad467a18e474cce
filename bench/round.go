package main

import (
	"fmt"
	"sort"
	"time"

	"mbd/bench/gen"
)

// idleWindow is how long a traced server sits untouched before load, to
// read its idle footprint.
const idleWindow = 2 * time.Second

// shape is how one round is run.
type shape struct {
	// seconds is the measured window of a timed workload, and sizes the op
	// count of a fixed-count one.
	seconds float64
	// traced starts the server with -obs and a counted stderr pipe, takes
	// the idle reading and records a span around every client call.
	traced bool
	// idle is the traced round's idle window; -quick shortens it.
	idle time.Duration
}

// roundResult is what one round against one fresh server measured.
type roundResult struct {
	ops, failed int
	wall        time.Duration
	latUS       []float64 // sorted, successful ops only
	setup       time.Duration
	start       time.Duration
	cpu         time.Duration
	genCPU      time.Duration
	rssMB       float64
	wire        uint64
	events      int
	before      scrape
	after       scrape
	violations  []string

	// Traced rounds only.
	rec         *recorder
	idleRSSMB   float64
	idleCPUms   float64 // ms of server CPU per idle second
	stderrBytes int64
	scrapeReply uint64 // wire size of the opening scrape's reply
}

func (r *roundResult) attempted() int { return r.ops + r.failed }

func (r *roundResult) opsPerS() float64 { return float64(r.ops) / r.wall.Seconds() }
func (r *roundResult) p(q float64) float64 {
	return percentile(r.latUS, q)
}
func (r *roundResult) cpuMSPerKop() float64 {
	return float64(r.cpu) / float64(time.Millisecond) / float64(max(r.ops, 1)) * 1000
}

// e2e is the round's value of every end-to-end metric.
func (r *roundResult) e2e() map[string]float64 {
	return map[string]float64{
		"ops_per_s":             r.opsPerS(),
		"op_p50_us":             r.p(0.50),
		"op_p95_us":             r.p(0.95),
		"server_cpu_ms_per_kop": r.cpuMSPerKop(),
		"server_rss_mb":         r.rssMB,
		"wire_bytes_per_op":     float64(r.wire) / float64(max(r.ops, 1)),
		"setup_s":               r.setup.Seconds(),
	}
}

// runRound starts a fresh server, sets the workload up, runs its closed
// loop for one measured window and stops the server again. Set-up time is
// server exec until ready, plus connect and subscribe, plus resident-agent
// delegation, plus the workload's fixed count of warm-up ops.
func runRound(bin string, w *workload, in *gen.Inputs, sh shape) (res *roundResult, err error) {
	nOps := 0
	if w.fixedOps != nil {
		nOps = w.fixedOps(sh.seconds)
	}
	s := newSession(in)
	if w.prepare != nil {
		w.prepare(s, w.warmup+nOps)
	}
	res = &roundResult{}

	t0 := time.Now()
	srv, err := startServer(bin, sh.traced)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	defer s.close()
	// Whatever goes wrong below, a dead server is the better explanation.
	defer func() {
		if err != nil && !srv.alive() {
			err = fmt.Errorf("%w\n%v", srv.died("mid-round"), err)
		}
	}()
	res.start = srv.startDur
	if err := s.connect(srv, sh.traced); err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	idleTaken := time.Duration(0)
	if sh.traced && sh.idle > 0 {
		idleStart := time.Now()
		if err := res.readIdle(srv, sh.idle); err != nil {
			return nil, err
		}
		idleTaken = time.Since(idleStart)
	}
	if w.setup != nil {
		if err := w.setup(s); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	for i := 0; i < w.warmup; i++ {
		ok, err := w.op(s, i, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if !ok {
			return nil, fmt.Errorf("warm-up op %d returned a wrong result", i)
		}
	}
	res.setup = time.Since(t0) - idleTaken

	ctlIn0 := ctlBytesIn(s)
	if res.before, err = s.scrape(); err != nil {
		return nil, err
	}
	res.scrapeReply = ctlBytesIn(s) - ctlIn0
	if sh.traced {
		// Room for the fastest workload at four spans an op, so the slice
		// never grows, and copies itself, inside a timed op.
		res.rec = newRecorder(int(sh.seconds*160_000) + 1<<16)
	}
	var stderr0 int64
	if srv.stderr != nil {
		stderr0 = srv.stderr.count()
	}
	wire0, events0, gen0 := s.wireBytes(), s.eventsSeen, selfCPU()
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}

	lat := make([]int64, 0, 1<<16)
	begin := time.Now()
	deadline := begin.Add(time.Duration(sh.seconds * float64(time.Second)))
	end := begin
	for i := 0; ; i++ {
		if nOps > 0 {
			if i >= nOps {
				break
			}
		} else if !end.Before(deadline) {
			break
		}
		opStart := time.Now()
		ok, err := w.op(s, w.warmup+i, res.rec)
		end = time.Now()
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if !ok {
			res.failed++
			continue
		}
		res.ops++
		lat = append(lat, int64(end.Sub(opStart)))
		if res.rec != nil {
			res.rec.addOp(w.warmup+i, opStart, end)
		}
	}
	res.wall = end.Sub(begin)

	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	if res.rssMB, err = srv.rssMB(); err != nil {
		return nil, err
	}
	res.cpu, res.genCPU = cpu1-cpu0, selfCPU()-gen0
	res.wire, res.events = s.wireBytes()-wire0, s.eventsSeen-events0
	s.windowEvents = res.events
	if srv.stderr != nil {
		res.stderrBytes = srv.stderr.count() - stderr0
	}
	if res.after, err = s.scrape(); err != nil {
		return nil, err
	}
	res.latUS = sortedMicros(lat)
	if res.ops == 0 {
		return nil, fmt.Errorf("no op succeeded (%d failed)", res.failed)
	}
	res.violations = w.check(s, res.attempted(), res.before, res.after)
	if !srv.alive() {
		return nil, srv.died("by the end of the round")
	}
	return res, nil
}

// ctlBytesIn is the bytes the control connection has received.
func ctlBytesIn(s *session) uint64 {
	_, in := s.ctl.Bytes()
	return in
}

// readIdle leaves the server alone for d and records what it cost.
func (r *roundResult) readIdle(srv *server, d time.Duration) error {
	c0, err := srv.cpuFine()
	if err != nil {
		return err
	}
	t0 := time.Now()
	time.Sleep(d)
	c1, err := srv.cpuFine()
	if err != nil {
		return err
	}
	r.idleCPUms = float64(c1-c0) / float64(time.Millisecond) / time.Since(t0).Seconds()
	r.idleRSSMB, err = srv.rssMB()
	return err
}

// extras are the layer readings that need a live server but belong to no
// workload's window, so they run on one extra traced server of their own:
// the RDS round-trip floor, the marginal cost of one more event frame, the
// delegate cycle when the program cache hits, and the cost of a scrape.
type extras struct {
	nullRTTUS     float64
	eventMarginal float64
	cachedCycleUS float64
	scrapeMS      float64
}

const (
	cachedSources = 16
	cachedCycles  = 1000
)

// runExtras takes the extras readings. scale shrinks the counts for -quick.
func runExtras(bin string, in *gen.Inputs, scale float64) (ex extras, err error) {
	n := func(full int) int { return max(int(float64(full)*scale), 20) }
	s := newSession(in)
	cold := make([]gen.Cold, cachedSources)
	for i := range cold {
		cold[i] = in.Cold(i)
	}
	srv, err := startServer(bin, true)
	if err != nil {
		return ex, err
	}
	defer srv.stop()
	defer s.close()
	defer func() {
		if err != nil && !srv.alive() {
			err = fmt.Errorf("%w\n%v", srv.died("during the extras readings"), err)
		}
	}()
	if err := s.connect(srv, false); err != nil {
		return ex, err
	}

	// Round-trip floor: Query of the one DPI there is, a parked agent.
	if err := s.start("parked", gen.ParkedAgent); err != nil {
		return ex, err
	}
	if ex.nullRTTUS, err = medianUS(n(2000), func(int) error { return s.queryOne() }); err != nil {
		return ex, err
	}

	// Scrape cost, on a server that has run almost nothing.
	us, err := medianUS(n(40), func(int) error { _, err := s.scrape(); return err })
	if err != nil {
		return ex, err
	}
	ex.scrapeMS = us / 1000

	// Cached cycle: the sources are admitted once, then delegated again
	// under the same names, so every Delegate is a program-cache hit.
	for i, c := range cold {
		if ok, err := s.coldCycle(c, i, nil); err != nil || !ok {
			return ex, fmt.Errorf("admitting cached source %d: ok=%v err=%v", i, ok, err)
		}
	}
	ex.cachedCycleUS, err = medianUS(n(cachedCycles), func(i int) error {
		ok, err := s.coldCycle(cold[i%cachedSources], i, nil)
		if err == nil && !ok {
			err = fmt.Errorf("cached cycle %d returned a wrong result", i)
		}
		return err
	})
	if err != nil {
		return ex, err
	}

	// Marginal event: the same request at 128 rows and at 1 row.
	if err := s.resident("tableagent", gen.TableAgent()); err != nil {
		return ex, err
	}
	stream := func(rows int) (float64, error) {
		return medianUS(n(400), func(i int) error {
			ok, err := s.streamOp(in.Nonce(i), rows, i, nil)
			if err == nil && !ok {
				err = fmt.Errorf("stream op %d returned wrong rows", i)
			}
			return err
		})
	}
	if _, err := stream(gen.TableRows); err != nil { // warm the path
		return ex, err
	}
	wide, err := stream(gen.TableRows)
	if err != nil {
		return ex, err
	}
	narrow, err := stream(1)
	if err != nil {
		return ex, err
	}
	ex.eventMarginal = (wide - narrow) / float64(gen.TableRows-1)
	return ex, nil
}

// medianUS runs fn n times and returns the median duration in µs.
func medianUS(n int, fn func(i int) error) (float64, error) {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(d)
	return percentile(d, 0.5), nil
}
