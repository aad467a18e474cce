package elastic

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/dpl"
)

// Multi-tenant isolation. The elastic process is a shared host for
// code delegated by many managers; PR 1's static analysis bounds what
// one *program* may cost, but nothing stopped one *principal* from
// admitting hundreds of instances, flooding events, or filling the
// repository. The tenant ledger turns those static verdicts into
// runtime law: every principal's live DPIs, VM step rate, event
// emission rate and repository bytes are tracked against a Quota
// (server default + per-principal overrides, granted ACL-style), and
// violations degrade gracefully — reject at admission with a QUO-coded
// diagnostic, throttle at runtime, then suspend, then terminate with a
// typed reason. Never silent death.

// Quota bounds one principal's runtime resource use. The zero value of
// every axis means "unlimited" (Weight zero means the default weight
// of 1), so the zero Quota is the pre-tenancy free-for-all.
type Quota struct {
	// MaxLiveDPIs bounds concurrently live instances billed to the
	// principal.
	MaxLiveDPIs int `json:"max_live_dpis,omitempty"`
	// StepsPerSec bounds the principal's sustained VM step rate across
	// all of its instances.
	StepsPerSec uint64 `json:"steps_per_sec,omitempty"`
	// EventsPerSec bounds the principal's sustained event emission rate
	// (report/notify/log host functions).
	EventsPerSec uint64 `json:"events_per_sec,omitempty"`
	// RepositoryBytes bounds the stored program bytes (source or
	// compiled artifact) owned by the principal.
	RepositoryBytes int64 `json:"repository_bytes,omitempty"`
	// RequestsPerSec bounds the principal's RDS request dispatch rate;
	// enforced by the RDS server (Tenants.AdmitRequest).
	RequestsPerSec uint64 `json:"requests_per_sec,omitempty"`
	// Weight is the principal's share in the weighted-fair DPI
	// scheduler and its shedding priority under overload (higher
	// weights shed last). 0 means 1.
	Weight int `json:"weight,omitempty"`
}

// weight resolves the effective scheduler weight.
func (q Quota) weight() int {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// ParseQuota parses a comma-separated k=v quota spec, e.g.
// "dpis=8,steps=200000,events=50,repo=65536,reqs=100,weight=4".
// Unknown keys are an error; omitted keys stay unlimited. Shared by
// the mbdserver flags and the tests.
func ParseQuota(spec string) (Quota, error) {
	var q Quota
	if strings.TrimSpace(spec) == "" {
		return q, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Quota{}, fmt.Errorf("elastic: quota spec %q: want k=v", kv)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil || n < 0 {
			return Quota{}, fmt.Errorf("elastic: quota spec %q: bad value", kv)
		}
		switch strings.TrimSpace(k) {
		case "dpis":
			q.MaxLiveDPIs = int(n)
		case "steps":
			q.StepsPerSec = uint64(n)
		case "events":
			q.EventsPerSec = uint64(n)
		case "repo":
			q.RepositoryBytes = n
		case "reqs":
			q.RequestsPerSec = uint64(n)
		case "weight":
			q.Weight = int(n)
		default:
			return Quota{}, fmt.Errorf("elastic: quota spec %q: unknown key (want dpis/steps/events/repo/reqs/weight)", kv)
		}
	}
	return q, nil
}

// Runtime-enforcement defaults, applied by NewProcess when the Config
// fields are zero.
const (
	defaultThrottleGrace       = 250 * time.Millisecond
	defaultMaxQuotaSuspensions = 8
	defaultQuotaBlockPenalty   = 10 * time.Second
	defaultMaxRepositoryBytes  = 64 << 20
)

// Quota diagnostic codes, carried in RejectError/DiagRec exactly like
// the analyzer's DPL codes so they ride the existing wire path.
const (
	// CodeQuotaDPIs rejects an instantiation over MaxLiveDPIs.
	CodeQuotaDPIs = "QUO001"
	// CodeQuotaRepoBytes rejects a delegation over RepositoryBytes.
	CodeQuotaRepoBytes = "QUO002"
	// CodeQuotaStepRate names a sustained StepsPerSec violation; it is
	// the termination reason of a step-hot DPI and the admission block
	// code while its tenant serves the penalty.
	CodeQuotaStepRate = "QUO003"
	// CodeQuotaEventRate names a sustained EventsPerSec violation
	// (termination reason / admission block code, as QUO003).
	CodeQuotaEventRate = "QUO004"
	// CodeQuotaRequestRate rejects an RDS request shed by the
	// per-principal dispatch rate limit.
	CodeQuotaRequestRate = "QUO005"
)

// quotaReject builds the QUO-coded RejectError for one violation.
func quotaReject(code, msg string) *RejectError {
	return &RejectError{Diags: []dpl.Diagnostic{{
		Code: code,
		Sev:  dpl.SevError,
		Msg:  msg,
	}}}
}

// QuotaError is the typed runtime-enforcement exit reason: a DPI
// terminated (never silently) after its tenant exhausted the
// throttle → suspend escalation ladder on one rate axis.
type QuotaError struct {
	Principal string
	Code      string // QUO003 or QUO004
	Axis      string // "steps" or "events"
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("elastic: terminated for sustained %s-rate quota violation by %s (%s)", e.Axis, e.Principal, e.Code)
}

// bucket is a token bucket on the process clock. Consumption is
// post-paid (the VM has already run the steps being billed), so tokens
// go negative under violation and reserve reports how long the caller
// must pause to amortize the debt. All fields are guarded by mu; the
// clock is read by the caller so virtual clocks work.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables
	burst  float64
	tokens float64
	last   time.Duration
	primed bool
}

// configure (re)sets the bucket's rate, forgiving accumulated debt so
// a quota change takes effect immediately.
func (b *bucket) configure(rate uint64, minBurst float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rate = float64(rate)
	b.burst = max(float64(rate), minBurst)
	b.tokens = b.burst
	b.primed = false
}

// reserve bills n tokens at time now and returns how long the caller
// should pause before continuing (0 when inside the rate).
func (b *bucket) reserve(now time.Duration, n float64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return 0
	}
	if !b.primed {
		b.last = now
		b.primed = true
	}
	if dt := now - b.last; dt > 0 {
		b.tokens += dt.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	b.tokens -= n
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// Tenant is one principal's runtime ledger: its effective quota, its
// rate buckets, and its usage/billing counters. All counters are
// atomics; the quota is guarded by mu and swapped whole on SetQuota.
type Tenant struct {
	Principal string

	mu       sync.Mutex
	quota    Quota
	override bool
	// blockedUntil > 0 pauses new instantiations until the process
	// clock passes it; blockedCode names the violated axis.
	blockedUntil time.Duration
	blockedCode  string

	steps  bucket
	events bucket
	reqs   bucket

	live      atomic.Int64
	repoBytes atomic.Int64
	// repoLimit and eventsLimit mirror quota.RepositoryBytes and
	// quota.EventsPerSec so the per-delegation admission check and the
	// per-event billing cost one atomic load, not a mutex, when the
	// axis is unlimited.
	repoLimit   atomic.Int64
	eventsLimit atomic.Uint64

	stepsTotal   atomic.Uint64
	eventsTotal  atomic.Uint64
	throttles    atomic.Uint64
	suspensions  atomic.Uint64
	terminations atomic.Uint64
	rejections   atomic.Uint64
	reqsShed     atomic.Uint64
}

// Quota returns the tenant's effective quota.
func (t *Tenant) Quota() Quota {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.quota
}

// setQuota installs q and reconfigures the rate buckets.
func (t *Tenant) setQuota(q Quota, override bool) {
	t.mu.Lock()
	t.quota = q
	t.override = override
	t.mu.Unlock()
	t.repoLimit.Store(q.RepositoryBytes)
	t.eventsLimit.Store(q.EventsPerSec)
	t.steps.configure(q.StepsPerSec, 4*defaultSchedQuantum)
	t.events.configure(q.EventsPerSec, 16)
	t.reqs.configure(q.RequestsPerSec, 8)
}

// block starts the admission penalty after a quota termination.
func (t *Tenant) block(until time.Duration, code string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if until > t.blockedUntil {
		t.blockedUntil = until
		t.blockedCode = code
	}
}

// blocked reports the active admission penalty, if any.
func (t *Tenant) blocked(now time.Duration) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.blockedUntil > now {
		return t.blockedCode, true
	}
	return "", false
}

// Weight returns the tenant's scheduler weight.
func (t *Tenant) Weight() int { return t.Quota().weight() }

// Tenants is the process's per-principal ledger table. Tenants are
// created lazily on first touch, inheriting the server-default quota
// unless an override was granted (SetQuota — the runtime analogue of
// ACL.Limit). The RDS server sheds requests and events through it.
type Tenants struct {
	p        *Process
	defaults Quota

	mu sync.RWMutex
	m  map[string]*Tenant
}

func newTenants(p *Process, defaults Quota, overrides map[string]Quota) *Tenants {
	ts := &Tenants{p: p, defaults: defaults, m: make(map[string]*Tenant)}
	for pr, q := range overrides {
		ts.SetQuota(pr, q)
	}
	return ts
}

// Defaults returns the server-default quota applied to tenants without
// an override.
func (ts *Tenants) Defaults() Quota { return ts.defaults }

// get returns principal's ledger, creating (and instrumenting) it on
// first touch.
func (ts *Tenants) get(principal string) *Tenant {
	ts.mu.RLock()
	t := ts.m[principal]
	ts.mu.RUnlock()
	if t != nil {
		return t
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t = ts.m[principal]; t != nil {
		return t
	}
	t = &Tenant{Principal: principal}
	t.setQuota(ts.defaults, false)
	ts.m[principal] = t
	ts.instrument(t)
	return t
}

// Lookup returns principal's ledger without creating one.
func (ts *Tenants) Lookup(principal string) (*Tenant, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	t, ok := ts.m[principal]
	return t, ok
}

// SetQuota grants principal a quota override, replacing any previous
// one — the tenancy analogue of ACL.Limit.
func (ts *Tenants) SetQuota(principal string, q Quota) {
	ts.get(principal).setQuota(q, true)
}

// instrument registers the per-tenant audit/billing series. They are
// labeled by principal, so the registry's Flatten snapshot — and with
// it /metrics, the OpStats view and the self-stats MIB subtree —
// exposes the whole billing table with no extra plumbing. Caller holds
// ts.mu.
func (ts *Tenants) instrument(t *Tenant) {
	reg, pr := ts.p.reg, t.Principal
	reg.LabeledFuncGauge("elastic_tenant_dpis_live", "live DPIs by billing principal", "principal", pr, t.live.Load)
	reg.LabeledFuncGauge("elastic_tenant_repo_bytes", "stored program bytes by owning principal", "principal", pr, t.repoBytes.Load)
	reg.LabeledFuncCounter("elastic_tenant_vm_steps_total", "VM steps billed, by principal", "principal", pr, t.stepsTotal.Load)
	reg.LabeledFuncCounter("elastic_tenant_events_total", "events emitted, by principal", "principal", pr, t.eventsTotal.Load)
	reg.LabeledFuncCounter("elastic_tenant_throttles_total", "rate-quota throttle pauses, by principal", "principal", pr, t.throttles.Load)
	reg.LabeledFuncCounter("elastic_tenant_suspensions_total", "rate-quota suspensions, by principal", "principal", pr, t.suspensions.Load)
	reg.LabeledFuncCounter("elastic_tenant_terminations_total", "DPIs terminated for quota violations, by principal", "principal", pr, t.terminations.Load)
	reg.LabeledFuncCounter("elastic_tenant_rejections_total", "QUO-coded admission rejections, by principal", "principal", pr, t.rejections.Load)
}

// quotaRejected accounts one QUO-coded rejection on both the tenant
// and the process ledgers and returns the RejectError.
func (ts *Tenants) quotaRejected(t *Tenant, scope, code, msg string) error {
	err := ts.quotaRefused(t, code, msg)
	ts.p.rejected(scope, err, 0)
	return err
}

// quotaRefused accounts one QUO-coded rejection on the tenant's ledger
// and returns the RejectError, which the caller accounts on the
// process's (Process.rejected).
func (ts *Tenants) quotaRefused(t *Tenant, code, msg string) error {
	t.rejections.Add(1)
	ts.p.met.quotaRejections.Inc()
	return quotaReject(code, msg)
}

// admitInstance gates one instantiation billed to principal: the
// tenant must not be serving an admission penalty and must have a live
// DPI below its cap. On success the live count is already charged —
// the caller must release it via releaseInstance when the run ends (or
// failed to start).
func (ts *Tenants) admitInstance(principal string) (*Tenant, error) {
	t := ts.get(principal)
	if code, blocked := t.blocked(ts.p.clock.Now()); blocked {
		return nil, ts.quotaRejected(t, principal, code,
			fmt.Sprintf("tenant %s is blocked after a %s quota termination", principal, code))
	}
	q := t.Quota()
	if q.MaxLiveDPIs > 0 {
		if n := t.live.Add(1); n > int64(q.MaxLiveDPIs) {
			t.live.Add(-1)
			return nil, ts.quotaRejected(t, principal, CodeQuotaDPIs,
				fmt.Sprintf("tenant %s is at its live-DPI quota (%d)", principal, q.MaxLiveDPIs))
		}
		return t, nil
	}
	t.live.Add(1)
	return t, nil
}

// admitRepoBytes gates a delegation whose net growth of t's stored
// bytes is delta (the replaced program's size already credited), with
// limit pre-read from t.repoLimit by the caller. A refusal is the
// caller's to account on the process's ledger.
func (ts *Tenants) admitRepoBytes(t *Tenant, delta, limit int64) error {
	if t.repoBytes.Load()+delta > limit {
		return ts.quotaRefused(t, CodeQuotaRepoBytes,
			fmt.Sprintf("tenant %s is at its repository-bytes quota (%d)", t.Principal, limit))
	}
	return nil
}

// AdmitRequest is the RDS server's request gate: it bills one dispatched
// request and sheds it (a QUO005-coded RejectError, no waiting) when
// the principal is over its request rate. The event axis is enforced
// at emission; this axis protects the dispatch path itself.
func (ts *Tenants) AdmitRequest(principal string) error {
	t := ts.get(principal)
	if t.Quota().RequestsPerSec == 0 {
		return nil
	}
	if wait := t.reqs.reserve(ts.p.clock.Now(), 1); wait > 0 {
		t.reqsShed.Add(1)
		return ts.quotaRejected(t, principal, CodeQuotaRequestRate,
			fmt.Sprintf("tenant %s is over its request-rate quota", principal))
	}
	return nil
}

// Weight is principal's event-shedding weight. Unknown principals get
// the default weight without creating a ledger.
func (ts *Tenants) Weight(principal string) int {
	if t, ok := ts.Lookup(principal); ok {
		return t.Weight()
	}
	return ts.defaults.weight()
}

// MaxActiveWeight is the highest weight among tenants with live DPIs
// (at least the default weight). Under
// global backpressure the RDS server sheds event traffic from every
// tenant below it — lowest-weight traffic first.
func (ts *Tenants) MaxActiveWeight() int {
	maxW := ts.defaults.weight()
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	for _, t := range ts.m {
		if t.live.Load() > 0 {
			if w := t.Weight(); w > maxW {
				maxW = w
			}
		}
	}
	return maxW
}

// TenantStatus is one row of the per-tenant audit/billing view.
type TenantStatus struct {
	Principal    string `json:"principal"`
	Quota        Quota  `json:"quota"`
	Override     bool   `json:"override,omitempty"`
	Weight       int    `json:"weight"`
	LiveDPIs     int64  `json:"live_dpis"`
	RepoBytes    int64  `json:"repo_bytes"`
	Steps        uint64 `json:"steps_total"`
	Events       uint64 `json:"events_total"`
	Throttles    uint64 `json:"throttles_total"`
	Suspensions  uint64 `json:"suspensions_total"`
	Terminations uint64 `json:"terminations_total"`
	Rejections   uint64 `json:"rejections_total"`
	RequestsShed uint64 `json:"requests_shed_total"`
	Blocked      string `json:"blocked,omitempty"`
}

// tenantStatusDoc is the OpStats "tenants" view document.
type tenantStatusDoc struct {
	DefaultQuota Quota          `json:"default_quota"`
	Tenants      []TenantStatus `json:"tenants"`
}

// List snapshots every tenant's status, sorted by principal.
func (ts *Tenants) List() []TenantStatus {
	ts.mu.RLock()
	tenants := make([]*Tenant, 0, len(ts.m))
	for _, t := range ts.m {
		tenants = append(tenants, t)
	}
	ts.mu.RUnlock()
	now := ts.p.clock.Now()
	out := make([]TenantStatus, 0, len(tenants))
	for _, t := range tenants {
		t.mu.Lock()
		st := TenantStatus{
			Principal: t.Principal,
			Quota:     t.quota,
			Override:  t.override,
			Weight:    t.quota.weight(),
		}
		if t.blockedUntil > now {
			st.Blocked = t.blockedCode
		}
		t.mu.Unlock()
		st.LiveDPIs = t.live.Load()
		st.RepoBytes = t.repoBytes.Load()
		st.Steps = t.stepsTotal.Load()
		st.Events = t.eventsTotal.Load()
		st.Throttles = t.throttles.Load()
		st.Suspensions = t.suspensions.Load()
		st.Terminations = t.terminations.Load()
		st.Rejections = t.rejections.Load()
		st.RequestsShed = t.reqsShed.Load()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Principal < out[j].Principal })
	return out
}

// Tenants exposes the process's tenant table.
func (p *Process) Tenants() *Tenants { return p.tenants }

// TenantStatusJSON renders the audit/billing view for the OpStats
// "tenants" entry and mbdctl tenant status|quota.
func (p *Process) TenantStatusJSON() ([]byte, error) {
	doc := tenantStatusDoc{
		DefaultQuota: p.tenants.Defaults(),
		Tenants:      p.tenants.List(),
	}
	return json.MarshalIndent(doc, "", "  ")
}
