package elastic

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/obs"
)

// Weighted-fair DPI scheduling. Before this, every DPI ran free on its
// own goroutine: one hot tenant spinning N compute loops took N
// slices of the machine and an idle tenant's latency with it. DPI
// goroutines still exist (they are the cheap part), but the right to
// *execute VM steps* is now a bounded set of run slots handed out in
// weighted-fair order — smallest per-tenant virtual time first, each
// grant charged quantum/weight of deficit. The scheduling tick is
// PR 7's batched step accounting: each VM yields at the first gate
// boundary after ~quantum steps (dpl.WithYield), releasing its slot
// whenever someone is waiting, so a tenant's compute share converges
// to weight/Σweights regardless of how many instances it spins up —
// a hot tenant degrades itself, an idle tenant gets latency as-if
// alone. Blocking host calls (sleep, a parked recv, a quota pause)
// release the slot for their duration.

// Scheduling defaults.
const (
	// defaultSchedQuantum is the step grant per scheduling turn. It
	// trades fairness granularity against slot-switch overhead: at
	// ~4ns/step a quantum is ~16µs of execution per context switch.
	defaultSchedQuantum = 4096
)

// scheduler hands out run slots in deficit-round-robin order over the
// tenants with waiting DPIs. All state is under one mutex — it is
// touched once per quantum per running DPI, not per step.
type scheduler struct {
	workers int
	quantum int64

	grants  atomic.Uint64
	waiting atomic.Int64

	mu      sync.Mutex
	running int
	nwait   int // queued, non-abandoned waiters
	qs      map[*Tenant]*tenantQ
	ring    []*tenantQ // tenants with at least one waiter
	vclock  float64    // virtual time of the latest grant
}

// tenantQ is one tenant's FIFO of parked DPIs plus its virtual time —
// the deficit accounting that makes the rotation weighted: each grant
// advances vtime by quantum/weight, and dispatch always serves the
// smallest vtime, so over any interval a backlogged tenant's grant
// count is proportional to its weight.
type tenantQ struct {
	t       *Tenant
	vtime   float64
	waiters []*waiter
	inRing  bool
}

// waiter parks one DPI goroutine until granted or abandoned. A grant
// sends one token on ch, which holds one, so the parked DPI takes it
// and parks on the same waiter next time: each DPI keeps one
// (DPI.waiter) rather than allocating a waiter and a channel per park.
type waiter struct {
	ch        chan struct{}
	granted   bool
	abandoned bool
}

func newScheduler(workers int, quantum int64) *scheduler {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
	}
	if quantum <= 0 {
		quantum = defaultSchedQuantum
	}
	return &scheduler{
		workers: workers,
		quantum: quantum,
		qs:      make(map[*Tenant]*tenantQ),
	}
}

func (s *scheduler) qfor(t *Tenant) *tenantQ {
	tq := s.qs[t]
	if tq == nil {
		tq = &tenantQ{t: t}
		s.qs[t] = tq
	}
	return tq
}

// enqueueLocked parks d's waiter on its tenant's queue, putting the
// queue in the ring if absent. A rejoining tenant's vtime is clamped up
// to the global grant clock so an idle period banks nothing, while a
// tenant that merely hopped out for one quantum keeps its earned
// position. d gets a new waiter only on its first park or after it
// abandoned the last one, which may still sit in a queue.
func (s *scheduler) enqueueLocked(d *DPI) *waiter {
	w := d.waiter
	if w == nil {
		w = &waiter{ch: make(chan struct{}, 1)}
		d.waiter = w
	}
	w.granted = false
	tq := s.qfor(d.tenant)
	tq.waiters = append(tq.waiters, w)
	if !tq.inRing {
		if tq.vtime < s.vclock {
			tq.vtime = s.vclock
		}
		tq.inRing = true
		s.ring = append(s.ring, tq)
	}
	s.nwait++
	s.waiting.Add(1)
	return w
}

// await parks on a granted-or-abandoned waiter. ctx abandonment
// (terminate, process stop) returns dpl.ErrTerminated so the exit
// reason matches an in-run terminate.
func (s *scheduler) await(ctx context.Context, d *DPI, w *waiter) error {
	select {
	case <-w.ch:
		s.waiting.Add(-1)
		d.slotted = true
		return nil
	case <-ctx.Done():
		// The waiter may stay queued, or hold a grant's token: d parks
		// on a new one next time.
		d.waiter = nil
		s.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: hand the slot on.
			s.running--
			s.dispatchLocked()
		} else {
			w.abandoned = true
			s.nwait--
		}
		s.mu.Unlock()
		s.waiting.Add(-1)
		return dpl.ErrTerminated
	}
}

// acquire blocks until d holds a run slot.
func (s *scheduler) acquire(ctx context.Context, d *DPI) error {
	s.mu.Lock()
	if s.running < s.workers && s.nwait == 0 {
		s.running++
		s.mu.Unlock()
		d.slotted = true
		return nil
	}
	w := s.enqueueLocked(d)
	s.mu.Unlock()
	return s.await(ctx, d, w)
}

// yield rotates d's slot at a quantum boundary: d re-enqueues BEFORE
// the slot is released, so the dispatch triggered by its own release
// already sees it in the ring. (Release-then-acquire would instead
// put a single-DPI tenant behind every grant its own release handed
// out, silently taxing small tenants a third of their share.) If
// nobody is waiting the slot is kept and this is one mutex hop.
func (s *scheduler) yield(ctx context.Context, d *DPI) error {
	s.mu.Lock()
	if s.nwait == 0 {
		s.mu.Unlock()
		return nil
	}
	w := s.enqueueLocked(d)
	s.running--
	d.slotted = false
	s.dispatchLocked()
	s.mu.Unlock()
	return s.await(ctx, d, w)
}

// release returns d's slot and dispatches the next waiter.
func (s *scheduler) release(d *DPI) {
	d.slotted = false
	s.mu.Lock()
	s.running--
	s.dispatchLocked()
	s.mu.Unlock()
}

// contended reports whether any DPI is parked waiting for a slot; the
// tick uses it to keep uncontended DPIs running without a round trip
// through the queue.
func (s *scheduler) contended() bool { return s.waiting.Load() > 0 }

// dispatchLocked grants free slots in weighted-fair order: always to
// the waiting tenant with the smallest virtual time, charging the
// grantee quantum/weight. A cursor rotation (classic DRR) would NOT
// work here: a tenant whose single DPI oscillates between running and
// queued leaves the ring at every grant, and any scheme that serves
// "whoever the cursor points at" degenerates into unweighted
// alternation. Comparative selection keeps the weighted share exact
// for any mix of queue depths. The ring stays small (one entry per
// tenant with waiters), so the linear scan is cheap next to the
// quantum it pays for.
func (s *scheduler) dispatchLocked() {
	for s.running < s.workers && s.nwait > 0 {
		var best *tenantQ
		bi := -1
		for i := 0; i < len(s.ring); {
			tq := s.ring[i]
			for len(tq.waiters) > 0 && tq.waiters[0].abandoned {
				tq.waiters = tq.waiters[1:]
			}
			if len(tq.waiters) == 0 {
				s.dropRingLocked(i)
				continue
			}
			if best == nil || tq.vtime < best.vtime {
				best, bi = tq, i
			}
			i++
		}
		if best == nil {
			return
		}
		w := best.waiters[0]
		best.waiters[0] = nil
		if len(best.waiters) == 1 {
			// Keep the storage: the next park appends without growing it.
			best.waiters = best.waiters[:0]
		} else {
			best.waiters = best.waiters[1:]
		}
		s.vclock = best.vtime
		best.vtime += float64(s.quantum) / float64(best.t.Weight())
		w.granted = true
		w.ch <- struct{}{}
		s.running++
		s.nwait--
		s.grants.Add(1)
		if len(best.waiters) == 0 {
			s.dropRingLocked(bi)
		}
	}
}

func (s *scheduler) dropRingLocked(i int) {
	s.ring[i].inRing = false
	s.ring = append(s.ring[:i], s.ring[i+1:]...)
}

// schedTick is the per-quantum scheduling tick, installed as the VM's
// yield hook. It hands off the quantum's events, bills the consumed
// steps to the tenant, enforces the step-rate quota through the
// throttle → suspend → terminate ladder, and rotates the run slot
// whenever another DPI is waiting for one.
func (d *DPI) schedTick(consumed uint64) error {
	d.handOff()
	p := d.proc
	if t := d.tenant; t != nil {
		t.stepsTotal.Add(consumed)
		d.billed += consumed
		if wait := t.steps.reserve(p.clock.Now(), float64(consumed)); wait > 0 {
			return d.unslotted(func() error { return d.quotaPause("steps", CodeQuotaStepRate, wait) })
		}
	}
	if s := p.sched; s != nil && s.contended() {
		return s.yield(d.runCtx, d)
	}
	return nil
}

// unslotted runs fn — a blocking region: a parked recv, a sleep, a
// quota pause, a suspension — without holding a run slot, so parked
// DPIs never starve runnable ones out of the worker pool. It hands off
// the buffered events and publishes the VM's step count first, so
// subscribers have what the DPI emitted and Steps is exact while it is
// parked. The slot is reacquired after fn even when fn fails, so an
// unwinding run still holds the slot its deferred release balances.
func (d *DPI) unslotted(fn func() error) error {
	d.handOff()
	d.vm.PublishSteps()
	s := d.proc.sched
	if s == nil || !d.slotted {
		return fn()
	}
	s.release(d)
	err := fn()
	if aerr := s.acquire(d.runCtx, d); aerr != nil && err == nil {
		err = aerr
	}
	return err
}

// quotaPause applies the escalation ladder to one rate-axis violation.
// A short debt is a throttle: sleep it off. A debt beyond the grace
// window is a suspension: pause for the full grace (the debt persists,
// so a saturating offender re-suspends immediately) and count it; past
// the suspension cap the DPI is terminated with a typed QuotaError and
// its tenant serves an admission penalty. The caller must not hold a
// run slot.
func (d *DPI) quotaPause(axis, code string, wait time.Duration) error {
	p := d.proc
	t := d.tenant
	grace := p.throttleGrace
	if wait > grace {
		d.quotaSuspensions++
		t.suspensions.Add(1)
		p.met.quotaSuspensions.Inc()
		p.tracer.Record(d.ID, obs.StageThrottle, axis+" rate over quota: suspended", grace)
		if d.quotaSuspensions > p.maxQuotaSuspensions {
			t.terminations.Add(1)
			p.met.quotaKills.Inc()
			t.block(p.clock.Now()+p.quotaBlockPenalty, code)
			err := &QuotaError{Principal: t.Principal, Code: code, Axis: axis}
			p.tracer.Record(d.ID, obs.StageQuotaKill, err.Error(), 0)
			return err
		}
		wait = grace
	} else {
		t.throttles.Add(1)
		p.met.quotaThrottles.Inc()
	}
	d.throttled.Store(true)
	defer d.throttled.Store(false)
	if err := p.clock.Sleep(d.runCtx, wait); err != nil {
		return dpl.ErrTerminated
	}
	return nil
}

// billEvent charges one event emission to the DPI's tenant, enforcing
// EventsPerSec through the same escalation ladder (pausing without a
// run slot). The exit event is exempt — termination must never be
// throttled into silence.
func (d *DPI) billEvent() error {
	t := d.tenant
	if t == nil {
		return nil
	}
	t.eventsTotal.Add(1)
	if t.eventsLimit.Load() == 0 {
		return nil
	}
	wait := t.events.reserve(d.proc.clock.Now(), 1)
	if wait == 0 {
		return nil
	}
	return d.unslotted(func() error { return d.quotaPause("events", CodeQuotaEventRate, wait) })
}
