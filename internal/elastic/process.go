package elastic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/obs"
)

// Errors surfaced by Process operations.
var (
	// ErrDenied reports an ACL rejection.
	ErrDenied = errors.New("elastic: permission denied")
	// ErrNoSuchDP reports an unknown delegated program name.
	ErrNoSuchDP = errors.New("elastic: no such delegated program")
	// ErrNoSuchDPI reports an unknown instance id.
	ErrNoSuchDPI = errors.New("elastic: no such instance")
	// ErrTooManyDPIs reports the instance-count resource limit.
	ErrTooManyDPIs = errors.New("elastic: instance limit reached")
	// ErrMailboxFull reports a send to a DPI whose mailbox is at its
	// depth limit.
	ErrMailboxFull = errors.New("elastic: mailbox full")
	// ErrStopped reports an operation on a stopped process.
	ErrStopped = errors.New("elastic: process stopped")
)

// EventKind classifies DPI-originated events.
type EventKind uint8

// Event kinds.
const (
	// EventReport is routine output (the report host function).
	EventReport EventKind = iota + 1
	// EventNotify is an exception/alarm (the notify host function).
	EventNotify
	// EventLog is diagnostic output (the log host function).
	EventLog
	// EventExit is emitted once when an instance finishes; Payload
	// holds the result or error rendering.
	EventExit
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventReport:
		return "report"
	case EventNotify:
		return "notify"
	case EventLog:
		return "log"
	case EventExit:
		return "exit"
	default:
		return "unknown"
	}
}

// Event is a message from a DPI to its observers.
type Event struct {
	DPI     string
	Kind    EventKind
	Payload string
	Time    time.Duration // process-clock timestamp
	// Principal is the billing principal of the emitting instance
	// (empty for synthetic events published on the process's behalf,
	// e.g. federation rollups). Downstream fan-out uses it to attribute
	// and shed per tenant, not per connection.
	Principal string
}

// Config parameterizes a Process.
type Config struct {
	// Clock defaults to a WallClock.
	Clock Clock
	// Bindings is the allowed host function table offered to DPs, on
	// top of which the process adds its instance services (sleep, now,
	// recv, report, notify, log, dpiid). Defaults to dpl.Std().
	Bindings *dpl.Bindings
	// ACL gates operations by principal; nil allows everything.
	ACL *ACL
	// MaxDPIs bounds concurrently live instances (0 = 1024).
	MaxDPIs int
	// MaxStepsPerDPI is each instance's VM step quota (0 = unlimited).
	// Programs whose static cost analysis bounds them tighter run under
	// their derived budget instead.
	MaxStepsPerDPI uint64
	// MailboxDepth bounds each instance's pending messages (0 = 64).
	MailboxDepth int
	// StrictAdmission rejects delegations carrying any analyzer
	// diagnostic, warnings included. The default accepts warnings and
	// rejects only error-severity findings (capability and cost
	// violations).
	StrictAdmission bool
	// CostCeiling rejects delegations whose statically estimated
	// instruction cost exceeds it; any nonzero ceiling also rejects
	// programs with unbounded cost. 0 disables the ceiling.
	CostCeiling uint64
	// ProgramCacheSize bounds the content-addressed compiled-program
	// cache (keyed by sha256(source) and compiler generation). 0 means
	// the default of 256 entries; negative disables caching.
	ProgramCacheSize int
	// RestartBackoffBase is the first supervised-restart delay
	// (default 100ms); successive consecutive failures double it.
	RestartBackoffBase time.Duration
	// RestartBackoffMax caps the supervised-restart delay (default 30s).
	RestartBackoffMax time.Duration
	// MaxRestarts caps consecutive failed restarts of one supervised
	// instance before the supervisor gives up (crash-loop protection;
	// default 8).
	MaxRestarts int
	// WatchdogInterval is the watchdog's poll period on the process
	// clock (default 100ms). Only instances whose InstanceSpec carries a
	// Deadline or StallTimeout are watched.
	WatchdogInterval time.Duration
	// Quota is the server-default per-tenant quota. The zero Quota
	// leaves every axis unlimited (the pre-tenancy free-for-all);
	// per-principal overrides come from TenantQuotas or runtime
	// Tenants().SetQuota grants.
	Quota Quota
	// TenantQuotas grants per-principal quota overrides at
	// construction (the ACL-style grant table for runtime resources).
	TenantQuotas map[string]Quota
	// SchedWorkers bounds the weighted-fair run-slot pool: how many
	// DPIs may execute VM steps concurrently. 0 means
	// max(2, GOMAXPROCS); negative disables fair scheduling and runs
	// every DPI goroutine free (the pre-tenancy behavior).
	SchedWorkers int
	// SchedQuantum is the VM step grant per scheduling turn (0 = 4096).
	SchedQuantum uint64
	// ThrottleGrace is the longest single rate-quota pause served as a
	// throttle; a debt beyond it escalates to a suspension (default
	// 250ms).
	ThrottleGrace time.Duration
	// MaxQuotaSuspensions caps one DPI's rate-quota suspensions before
	// it is terminated with a typed QuotaError (default 8).
	MaxQuotaSuspensions int
	// QuotaBlockPenalty is how long a tenant is refused new
	// instantiations after a quota termination (default 10s).
	QuotaBlockPenalty time.Duration
	// MaxRepositoryBytes caps total stored program bytes even when
	// per-tenant quotas are disabled; Store returns ErrRepositoryFull
	// beyond it. 0 means the 64 MiB default, negative disables the
	// ceiling.
	MaxRepositoryBytes int64
	// Obs receives the process's runtime metrics (delegations,
	// rejections by diagnostic code, live instances, VM steps, event
	// fan-out). Nil uses a private registry: counting always happens,
	// export is opt-in.
	Obs *obs.Registry
	// Tracer records delegation-lifecycle spans
	// (delegate/reject/instantiate/emit/exit/control). Nil disables
	// tracing.
	Tracer *obs.Tracer
}

// finishedKept is how many exited instances stay answerable through
// Query, Lookup and Control after they finish. Each exit displaces the
// oldest, so a node serving short delegations holds a fixed history,
// not one record per instance it ever ran.
const finishedKept = 256

// Process is an elastic process: it accepts delegated programs,
// instantiates them as controllable threads, routes messages to their
// mailboxes and fans their events out to subscribers.
type Process struct {
	cfg        Config
	clock      Clock
	repo       *Repository
	translator *Translator
	bindings   *dpl.Bindings
	progCache  *progCache

	mu      sync.Mutex
	dpis    map[string]*DPI
	seq     map[string]int // per-DP instance counter
	stopped bool
	wg      sync.WaitGroup
	// finished rings the ids of the last finishedKept exited instances,
	// the only finished records dpis retains; nFinished counts every
	// exit, so nFinished%finishedKept is the slot the next one takes.
	finished  [finishedKept]string
	nFinished uint64

	// ctx is cancelled by Stop; supervision timers and watchdogs sleep
	// under it so shutdown never waits out a backoff.
	ctx       context.Context
	ctxCancel context.CancelFunc

	// Resolved supervision tunables (Config fields with defaults
	// applied).
	supBackoffBase      time.Duration
	supBackoffMax       time.Duration
	supMaxRestarts      int
	supWatchdogInterval time.Duration

	// Multi-tenant machinery: the per-principal ledger table, the
	// weighted-fair run-slot scheduler (nil when disabled), and the
	// resolved escalation tunables.
	tenants             *Tenants
	sched               *scheduler
	schedQuantum        uint64
	throttleGrace       time.Duration
	maxQuotaSuspensions int
	quotaBlockPenalty   time.Duration

	// Subscribers are an immutable snapshot swapped copy-on-write under
	// subMu, so emit — the per-event hot path shared by every running
	// DPI — fans out with a single atomic load and no lock.
	subMu  sync.Mutex
	subs   atomic.Pointer[[]subscriber]
	subSeq int

	eventsEmitted atomic.Uint64

	reg    *obs.Registry
	tracer *obs.Tracer
	met    processMetrics
}

// processMetrics holds the registry-backed runtime counters. They
// replace the PR 2 mutex-guarded stats struct: every increment is one
// atomic add, and exporters read the same storage.
type processMetrics struct {
	delegations    *obs.Counter
	rejections     *obs.Counter
	instantiations *obs.Counter
	messagesSent   *obs.Counter
	stepsConsumed  *obs.Counter
	live           *obs.Gauge
	subscribers    *obs.Gauge
	runLat         *obs.Histogram
	// Fault-tolerance counters (see supervise.go).
	panics        *obs.Counter
	restarts      *obs.Counter
	watchdogKills *obs.Counter
	crashLoops    *obs.Counter
	// Verified-bytecode tier counters (see bytecode.go).
	sourceAnalyses *obs.Counter
	verifications  *obs.Counter
	// Multi-tenant enforcement counters (see tenant.go, sched.go).
	quotaThrottles   *obs.Counter
	quotaSuspensions *obs.Counter
	quotaKills       *obs.Counter
	quotaRejections  *obs.Counter
	repoFull         *obs.Counter
	// events indexes per-kind emit counters by EventKind.
	events [EventExit + 1]*obs.Counter
}

func newProcessMetrics(reg *obs.Registry, emitted *atomic.Uint64) processMetrics {
	m := processMetrics{
		delegations:    reg.Counter("elastic_delegations_total", "DPs admitted and stored"),
		rejections:     reg.Counter("elastic_rejections_total", "DPs refused at admission"),
		instantiations: reg.Counter("elastic_instantiations_total", "DPIs started"),
		messagesSent:   reg.Counter("elastic_messages_sent_total", "mailbox messages delivered"),
		stepsConsumed:  reg.Counter("elastic_vm_steps_total", "VM instructions consumed by finished DPIs"),
		live:           reg.Gauge("elastic_dpis_live", "currently running DPIs"),
		subscribers:    reg.Gauge("elastic_subscribers", "registered event subscribers"),
		runLat:         reg.Histogram("elastic_run_duration_seconds", "DPI lifetime from instantiate to exit", nil),
		panics:         reg.Counter("elastic_dpi_panics_total", "DP body panics recovered (instance crashed, process unharmed)"),
		restarts:       reg.Counter("elastic_dpi_restarts_total", "supervised DPI restarts performed"),
		watchdogKills:  reg.Counter("elastic_watchdog_kills_total", "DPIs killed for blowing a deadline or stalling"),
		crashLoops:     reg.Counter("elastic_crash_loops_total", "supervised lineages abandoned at the restart cap"),
		sourceAnalyses: reg.Counter("elastic_source_analyses_total", "full source-level translations (parse+compile+optimize+analyze)"),
		verifications:  reg.Counter("elastic_bytecode_verifications_total", "compiled artifacts verified at admission"),

		quotaThrottles:   reg.Counter("elastic_quota_throttles_total", "rate-quota throttle pauses served"),
		quotaSuspensions: reg.Counter("elastic_quota_suspensions_total", "rate-quota suspensions served"),
		quotaKills:       reg.Counter("elastic_quota_kills_total", "DPIs terminated for sustained quota violations"),
		quotaRejections:  reg.Counter("elastic_quota_rejections_total", "QUO-coded admission rejections"),
		repoFull:         reg.Counter("elastic_repo_full_total", "delegations refused at the repository byte ceiling"),
	}
	reg.FuncCounter("elastic_events_emitted_total", "events fanned out to subscribers", emitted.Load)
	for k := EventReport; k <= EventExit; k++ {
		m.events[k] = reg.LabeledCounter("elastic_events_total", "events emitted by kind", "kind", k.String())
	}
	return m
}

// subscriber pairs a registration id with its callback so unsubscribe
// can remove exactly one entry from the snapshot.
type subscriber struct {
	id int
	fn func(Event)
}

// ProcessStats counts runtime activity.
type ProcessStats struct {
	Delegations      uint64
	Rejections       uint64
	Instantiations   uint64
	EventsEmitted    uint64
	MessagesSent     uint64
	QuotaThrottles   uint64
	QuotaSuspensions uint64
	QuotaKills       uint64
	QuotaRejections  uint64
	RepoFull         uint64
}

// NewProcess builds an elastic process from cfg, registering the
// instance-service host functions into a clone of cfg.Bindings.
func NewProcess(cfg Config) *Process {
	if cfg.Clock == nil {
		cfg.Clock = &WallClock{}
	}
	if cfg.Bindings == nil {
		cfg.Bindings = dpl.Std()
	}
	if cfg.MaxDPIs <= 0 {
		cfg.MaxDPIs = 1024
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 64
	}
	p := &Process{
		cfg:                 cfg,
		clock:               cfg.Clock,
		repo:                NewRepository(),
		dpis:                make(map[string]*DPI),
		seq:                 make(map[string]int),
		reg:                 cfg.Obs,
		tracer:              cfg.Tracer,
		supBackoffBase:      cfg.RestartBackoffBase,
		supBackoffMax:       cfg.RestartBackoffMax,
		supMaxRestarts:      cfg.MaxRestarts,
		supWatchdogInterval: cfg.WatchdogInterval,
	}
	if p.supBackoffBase <= 0 {
		p.supBackoffBase = defaultBackoffBase
	}
	if p.supBackoffMax <= 0 {
		p.supBackoffMax = defaultBackoffMax
	}
	if p.supMaxRestarts <= 0 {
		p.supMaxRestarts = defaultMaxRestarts
	}
	if p.supWatchdogInterval <= 0 {
		p.supWatchdogInterval = defaultWatchdogInterval
	}
	p.ctx, p.ctxCancel = context.WithCancel(context.Background())
	if p.reg == nil {
		p.reg = obs.NewRegistry()
	}
	p.met = newProcessMetrics(p.reg, &p.eventsEmitted)
	p.progCache = newProgCache(cfg.ProgramCacheSize, p.reg)
	p.throttleGrace = cfg.ThrottleGrace
	if p.throttleGrace <= 0 {
		p.throttleGrace = defaultThrottleGrace
	}
	p.maxQuotaSuspensions = cfg.MaxQuotaSuspensions
	if p.maxQuotaSuspensions <= 0 {
		p.maxQuotaSuspensions = defaultMaxQuotaSuspensions
	}
	p.quotaBlockPenalty = cfg.QuotaBlockPenalty
	if p.quotaBlockPenalty <= 0 {
		p.quotaBlockPenalty = defaultQuotaBlockPenalty
	}
	p.tenants = newTenants(p, cfg.Quota, cfg.TenantQuotas)
	p.schedQuantum = cfg.SchedQuantum
	if p.schedQuantum == 0 {
		p.schedQuantum = defaultSchedQuantum
	}
	if cfg.SchedWorkers >= 0 {
		p.sched = newScheduler(cfg.SchedWorkers, int64(p.schedQuantum))
		p.reg.FuncCounter("elastic_sched_grants_total", "run-slot grants handed out by the fair scheduler", p.sched.grants.Load)
		p.reg.FuncGauge("elastic_sched_waiters", "DPIs parked waiting for a run slot", p.sched.waiting.Load)
	}
	limit := cfg.MaxRepositoryBytes
	if limit == 0 {
		limit = defaultMaxRepositoryBytes
	}
	if limit > 0 {
		p.repo.SetLimit(limit)
	}
	p.bindings = cfg.Bindings.Clone()
	p.registerInstanceServices()
	p.translator = NewTranslator(p.bindings)
	return p
}

// Repository exposes the program store (read-mostly; useful for status
// tools).
func (p *Process) Repository() *Repository { return p.repo }

// Clock returns the process clock.
func (p *Process) Clock() Clock { return p.clock }

// Bindings returns the process's allowed-function table (after
// instance services were added). Exposed for clients that want to
// pre-validate a DP before delegating it.
func (p *Process) Bindings() *dpl.Bindings { return p.bindings }

// Stats returns a copy of the process counters.
func (p *Process) Stats() ProcessStats {
	return ProcessStats{
		Delegations:      p.met.delegations.Value(),
		Rejections:       p.met.rejections.Value(),
		Instantiations:   p.met.instantiations.Value(),
		EventsEmitted:    p.eventsEmitted.Load(),
		MessagesSent:     p.met.messagesSent.Value(),
		QuotaThrottles:   p.met.quotaThrottles.Value(),
		QuotaSuspensions: p.met.quotaSuspensions.Value(),
		QuotaKills:       p.met.quotaKills.Value(),
		QuotaRejections:  p.met.quotaRejections.Value(),
		RepoFull:         p.met.repoFull.Value(),
	}
}

// Obs returns the process's metrics registry (the one passed in
// Config.Obs, or the private default).
func (p *Process) Obs() *obs.Registry { return p.reg }

// Subscribe registers fn for every event emitted by any DPI and returns
// an unsubscribe function. fn must not block, and is called on the
// emitting instance's goroutine — concurrent invocations happen when
// several DPIs emit at once, so fn must be safe for concurrent use.
func (p *Process) Subscribe(fn func(Event)) (cancel func()) {
	p.subMu.Lock()
	defer p.subMu.Unlock()
	id := p.subSeq
	p.subSeq++
	old := p.subs.Load()
	var next []subscriber
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, subscriber{id: id, fn: fn})
	p.subs.Store(&next)
	p.met.subscribers.Add(1)
	return func() {
		p.subMu.Lock()
		defer p.subMu.Unlock()
		cur := p.subs.Load()
		if cur == nil {
			return
		}
		trimmed := make([]subscriber, 0, len(*cur))
		for _, s := range *cur {
			if s.id != id {
				trimmed = append(trimmed, s)
			}
		}
		if len(trimmed) < len(*cur) {
			p.met.subscribers.Add(-1)
		}
		p.subs.Store(&trimmed)
	}
}

// emit fans ev out to the current subscriber snapshot. No lock: the
// snapshot is immutable, so a single atomic load suffices even while
// Subscribe/unsubscribe swap in new snapshots concurrently.
func (p *Process) emit(ev Event) {
	p.eventsEmitted.Add(1)
	if c := p.met.events[ev.Kind]; c != nil {
		c.Inc()
	}
	// Kind.String() is a static string: recording an emit span costs
	// nothing when the tracer is nil and no allocation when it is set.
	p.tracer.Record(ev.DPI, obs.StageEmit, ev.Kind.String(), 0)
	if subs := p.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.fn(ev)
		}
	}
}

// Publish fans a synthetic event out to the process's subscribers on
// behalf of source, which takes the place of a DPI id. The federation
// layer's aggregation point uses it to surface rollup updates as
// ordinary process events — subscribed managers receive them exactly
// like DPI reports, with no polling.
func (p *Process) Publish(source string, kind EventKind, payload string) {
	p.emit(Event{DPI: source, Kind: kind, Payload: payload, Time: p.clock.Now()})
}

// Delegate translates, statically verifies, and stores a DP. This is
// the paper's "delegate" primitive: transfer once, instantiate many
// times. Beyond translation, the program's inferred effects are checked
// against the principal's capability and its estimated cost against the
// admission ceiling; violations return a *RejectError carrying the
// analyzer diagnostics.
func (p *Process) Delegate(principal, name, lang, source string) error {
	if !p.cfg.ACL.Allow(principal, RightDelegate) {
		return fmt.Errorf("%w: %s may not delegate", ErrDenied, principal)
	}
	dp, err := p.prepare(principal, name, lang, source)
	if err != nil {
		return err
	}
	return p.commit(dp)
}

// prepare translates and admits one program without storing it. A
// rejection is fully accounted (metrics, per-code labels, trace span)
// but leaves the repository untouched — LoadRepository leans on this to
// stay atomic across multi-file loads.
func (p *Process) prepare(principal, name, lang, source string) (*DP, error) {
	start := p.clock.Now()
	ent, err := p.translateCached(lang, source)
	if err == nil {
		// Admission is always per principal; only the translation and
		// analysis results are shared through the cache.
		err = p.admit(principal, ent.rep)
	}
	if err != nil {
		p.rejected(name, err, p.clock.Now()-start)
		return nil, err
	}
	dp := &DP{
		Name:       name,
		Owner:      principal,
		Lang:       lang,
		Source:     source,
		Object:     ent.obj,
		Program:    ent.prog,
		StoredAt:   p.clock.Now(),
		Effects:    ent.rep.Effects,
		Cost:       ent.rep.Cost,
		StepBudget: ent.rep.SuggestedBudget(p.cfg.MaxStepsPerDPI),
		size:       int64(len(source)),
		analysisNS: p.clock.Now() - start,
	}
	if err := p.admitTenantRepo(dp); err != nil {
		return nil, err
	}
	return dp, nil
}

// admitTenantRepo checks the delegating principal's repository-bytes
// quota against the growth this DP would cause (replacing one's own
// same-name program only bills the difference). The check is advisory
// under concurrency; the repository's global byte ceiling in Store is
// authoritative.
func (p *Process) admitTenantRepo(dp *DP) error {
	t := p.tenants.get(dp.Owner)
	limit := t.repoLimit.Load()
	if limit <= 0 {
		return nil
	}
	delta := dp.size
	if prev, ok := p.repo.Lookup(dp.Name); ok && prev.Owner == dp.Owner {
		delta -= prev.size
	}
	return p.tenants.admitRepoBytes(t, dp.Name, delta, limit)
}

// rejected accounts one admission failure (metrics, per-code labels,
// trace span).
func (p *Process) rejected(name string, err error, elapsed time.Duration) {
	p.met.rejections.Inc()
	var rej *RejectError
	if errors.As(err, &rej) {
		for _, d := range rej.Diags {
			p.reg.LabeledCounter("elastic_rejections_by_code_total",
				"delegations rejected at admission, by diagnostic code",
				"code", d.Code).Inc()
		}
	}
	p.tracer.Record(name, obs.StageReject, err.Error(), elapsed)
}

// translateCached resolves source through the content-addressed
// program cache, running the full source pipeline only on a miss.
func (p *Process) translateCached(lang, source string) (progEntry, error) {
	key := progKey{hash: dpl.HashSource(source), version: dpl.CompilerVersion}
	cacheable := lang == "dpl" && p.progCache != nil
	if cacheable {
		if ent, ok := p.progCache.get(key); ok {
			return ent, nil
		}
	}
	obj, rep, err := p.translator.TranslateAnalyzed(lang, source)
	if err != nil {
		return progEntry{}, err
	}
	p.met.sourceAnalyses.Inc()
	ent := progEntry{
		obj: obj,
		rep: rep,
		prog: &dpl.CompiledProgram{
			Version:    dpl.CompilerVersion,
			SourceHash: key.hash,
			Verdict:    verdictFromReport(rep),
			Object:     obj,
		},
	}
	if cacheable {
		p.progCache.put(key, ent)
	}
	return ent, nil
}

// verdictFromReport converts an analysis report into the shippable
// verdict attached to a CompiledProgram. The step budget is the
// analysis-derived one, unclamped: each receiving hop applies its own
// quota at admission.
func verdictFromReport(rep *analysis.Report) dpl.Verdict {
	return dpl.Verdict{
		Hosts:         rep.Effects.HostNames(),
		Reads:         rep.Effects.ReadPrefixes(),
		Writes:        rep.Effects.WritePrefixes(),
		CostSteps:     rep.Cost.Steps,
		CostUnbounded: rep.Cost.Unbounded,
		StepBudget:    rep.SuggestedBudget(0),
	}
}

// commit stores a prepared program and accounts the delegation,
// billing the stored bytes to the owner (and crediting the owner of
// any replaced same-name program). The repository's byte ceiling is
// enforced here; a full repository returns ErrRepositoryFull without
// storing.
func (p *Process) commit(dp *DP) error {
	prev, err := p.repo.Store(dp)
	if err != nil {
		p.met.repoFull.Inc()
		p.tracer.Record(dp.Name, obs.StageReject, err.Error(), 0)
		return err
	}
	p.committed(dp, prev)
	return nil
}

// committed settles the tenant byte ledger and accounting for one
// stored program: the owner is charged, the displaced program's owner
// credited.
func (p *Process) committed(dp, prev *DP) {
	if prev != nil && prev.Owner == dp.Owner {
		// Same-owner replacement (the cached re-delegation hot path):
		// bill only the size delta, usually zero.
		if d := dp.size - prev.size; d != 0 {
			p.tenants.get(dp.Owner).repoBytes.Add(d)
		}
	} else {
		p.tenants.get(dp.Owner).repoBytes.Add(dp.size)
		if prev != nil {
			p.tenants.get(prev.Owner).repoBytes.Add(-prev.size)
		}
	}
	p.met.delegations.Inc()
	p.tracer.Record(dp.Name, obs.StageDelegate,
		fmt.Sprintf("owner=%s lang=%s", dp.Owner, dp.Lang), dp.analysisNS)
}

// DeleteDP removes a program from the repository. Running instances are
// unaffected.
func (p *Process) DeleteDP(principal, name string) error {
	if !p.cfg.ACL.Allow(principal, RightDelete) {
		return fmt.Errorf("%w: %s may not delete", ErrDenied, principal)
	}
	prev, ok := p.repo.Delete(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDP, name)
	}
	p.tenants.get(prev.Owner).repoBytes.Add(-prev.size)
	return nil
}

// Instantiate creates a DPI of the named DP and starts it on its own
// goroutine, invoking entry(args...). It returns the running instance.
// The instance is unsupervised (RestartNever, no watchdog); use
// InstantiateSpec for fault-tolerant instantiation.
func (p *Process) Instantiate(principal, dpName, entry string, args ...dpl.Value) (*DPI, error) {
	return p.InstantiateSpec(principal, InstanceSpec{DP: dpName, Entry: entry, Args: args})
}

// startInstance admits and launches one instance of dp under spec,
// enforcing the process's resource limits and the billing principal's
// tenant quota (every incarnation passes through here, so supervised
// restarts are billed like first starts). sup, when non-nil, is
// notified of the instance's exit to apply the restart policy.
func (p *Process) startInstance(dp *DP, spec InstanceSpec, sup *supervisor) (*DPI, error) {
	tenant, err := p.tenants.admitInstance(spec.Principal)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		tenant.live.Add(-1)
		return nil, ErrStopped
	}
	if p.met.live.Value() >= int64(p.cfg.MaxDPIs) {
		p.mu.Unlock()
		tenant.live.Add(-1)
		return nil, fmt.Errorf("%w (%d)", ErrTooManyDPIs, p.cfg.MaxDPIs)
	}
	p.seq[dp.Name]++
	id := fmt.Sprintf("%s#%d", dp.Name, p.seq[dp.Name])
	ctrl := &dpl.Control{}
	// The statically derived budget, when one exists, is already
	// clamped to the server quota at admission; it only ever tightens.
	budget := p.cfg.MaxStepsPerDPI
	if dp.StepBudget != 0 {
		budget = dp.StepBudget
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &DPI{
		ID:        id,
		DP:        dp,
		Entry:     spec.Entry,
		spec:      spec,
		sup:       sup,
		proc:      p,
		tenant:    tenant,
		principal: spec.Principal,
		ctrl:      ctrl,
		mailbox:   make(chan string, p.cfg.MailboxDepth),
		started:   p.clock.Now(),
		runCtx:    ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	vm := dpl.NewVM(dp.Object, p.bindings,
		dpl.WithControl(ctrl),
		dpl.WithMaxSteps(budget),
		// The scheduling tick: fair-share slot rotation plus step-rate
		// billing, at quantum granularity on top of the batched step
		// accounting.
		dpl.WithYield(p.schedQuantum, d.schedTick),
	)
	d.vm = vm
	vm.Meta = d
	p.dpis[id] = d
	// Counted under p.mu, where the limit above reads it; DPI.run
	// uncounts under the same lock.
	p.met.live.Add(1)
	p.wg.Add(1)
	watched := spec.Deadline > 0 || spec.StallTimeout > 0
	if watched {
		p.wg.Add(1)
	}
	p.mu.Unlock()
	p.met.instantiations.Inc()
	p.tracer.Record(id, obs.StageInstantiate, "entry="+spec.Entry, 0)

	if watched {
		go d.watchdog()
	}
	go d.run(ctx, spec.Args)
	return d, nil
}

// Lookup returns a DPI by id.
func (p *Process) Lookup(dpiID string) (*DPI, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.dpis[dpiID]
	return d, ok
}

// ControlAction names a DPI control operation.
type ControlAction string

// Control actions.
const (
	ActionSuspend   ControlAction = "suspend"
	ActionResume    ControlAction = "resume"
	ActionTerminate ControlAction = "terminate"
)

// Control applies a lifecycle action to an instance.
func (p *Process) Control(principal, dpiID string, action ControlAction) error {
	if !p.cfg.ACL.Allow(principal, RightControl) {
		return fmt.Errorf("%w: %s may not control", ErrDenied, principal)
	}
	d, ok := p.Lookup(dpiID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDPI, dpiID)
	}
	switch action {
	case ActionSuspend:
		d.ctrl.Suspend()
	case ActionResume:
		d.ctrl.Resume()
	case ActionTerminate:
		d.Terminate()
	default:
		return fmt.Errorf("elastic: unknown control action %q", action)
	}
	p.tracer.Record(dpiID, obs.StageControl, string(action), 0)
	return nil
}

// Send delivers a message to an instance's mailbox without blocking; a
// full mailbox returns ErrMailboxFull (backpressure is the delegator's
// problem, as with any period-authentic datagram service).
func (p *Process) Send(principal, dpiID, payload string) error {
	if !p.cfg.ACL.Allow(principal, RightSend) {
		return fmt.Errorf("%w: %s may not send", ErrDenied, principal)
	}
	d, ok := p.Lookup(dpiID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDPI, dpiID)
	}
	select {
	case d.mailbox <- payload:
		p.met.messagesSent.Inc()
		return nil
	default:
		return fmt.Errorf("%w: %s", ErrMailboxFull, dpiID)
	}
}

// Info describes one instance for Query.
type Info struct {
	ID      string
	DP      string
	Entry   string
	State   string
	Steps   uint64
	Started time.Duration
	Result  string
	Err     string
}

// Query lists instance status. An empty dpiID lists all instances:
// every running one and the last finishedKept to exit.
func (p *Process) Query(principal, dpiID string) ([]Info, error) {
	if !p.cfg.ACL.Allow(principal, RightQuery) {
		return nil, fmt.Errorf("%w: %s may not query", ErrDenied, principal)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Info
	for id, d := range p.dpis {
		if dpiID != "" && id != dpiID {
			continue
		}
		out = append(out, d.info())
	}
	if dpiID != "" && len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchDPI, dpiID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Remove deletes a finished instance's record, reporting whether it was
// removed (running instances are not removable).
func (p *Process) Remove(dpiID string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.dpis[dpiID]
	if !ok || !d.Finished() {
		return false
	}
	delete(p.dpis, dpiID)
	return true
}

// Stop terminates every instance and waits for their goroutines to
// exit. The process accepts no further instantiations.
func (p *Process) Stop() {
	p.mu.Lock()
	p.stopped = true
	dpis := make([]*DPI, 0, len(p.dpis))
	for _, d := range p.dpis {
		dpis = append(dpis, d)
	}
	p.mu.Unlock()
	// Cancel supervision first so backoff timers and watchdogs wake
	// instead of being waited out.
	p.ctxCancel()
	for _, d := range dpis {
		d.Terminate()
	}
	p.wg.Wait()
}
