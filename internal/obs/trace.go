package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Lifecycle stage names recorded by the instrumented layers. A
// delegated program's life renders as the span sequence
// delegate → (reject | instantiate → run … emit* → exit) with control
// actions (suspend/resume/terminate) interleaved.
const (
	StageDelegate    = "delegate"
	StageReject      = "reject"
	StageInstantiate = "instantiate"
	StageEmit        = "emit"
	StageExit        = "exit"
	StageControl     = "control"
	StageRequest     = "request"
	// Fault-tolerance stages (see docs/ROBUSTNESS.md): a DP body panic,
	// a supervised restart, a crash-loop give-up, a watchdog kill, and a
	// server drain.
	StageCrash     = "crash"
	StageRestart   = "restart"
	StageCrashLoop = "crash-loop"
	StageWatchdog  = "watchdog-kill"
	StageDrain     = "drain"
	// Federation stages (see docs/FEDERATION.md): a member joining its
	// domain root, a cascaded delegation fanning out, a rollup value
	// recombining, and a member being declared dead.
	StageJoin       = "peer-join"
	StageFanout     = "fanout"
	StageRollup     = "rollup"
	StageMemberDead = "member-dead"
	// Multi-tenant stages (see docs/TENANCY.md): a DPI paused for
	// exceeding its tenant's rate quota, and a DPI terminated after
	// repeated violations.
	StageThrottle  = "quota-throttle"
	StageQuotaKill = "quota-kill"
)

// Span is one recorded lifecycle event.
type Span struct {
	// Seq orders spans totally; it increments per Record.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock recording time.
	Time time.Time `json:"time"`
	// Scope identifies the subject: a DP name, a DPI id, or an RDS op.
	Scope string `json:"scope"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Detail is free-form context (entry point, diagnostics, result).
	Detail string `json:"detail,omitempty"`
	// Dur is the stage's duration, when one is meaningful (analysis
	// time for delegate, run time for exit, serve time for request).
	Dur time.Duration `json:"dur_ns,omitempty"`
}

// Tracer records spans into a bounded ring: the newest spans win,
// readers get a snapshot copy. A nil *Tracer is valid and records
// nothing, so instrumented code needs no branching at call sites.
//
// Recording takes a short mutex — the lifecycle paths it instruments
// (delegation, instantiation, instance exit, per-event emits) are
// orders of magnitude rarer than the MIB/codec hot paths, which stay
// tracer-free by design.
type Tracer struct {
	mu   sync.Mutex
	seq  uint64
	ring []Span
	head int // index of the oldest span
	n    int
}

// NewTracer returns a tracer retaining the last capacity spans
// (default 512 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 512
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// Record appends one span. Safe on a nil tracer.
func (t *Tracer) Record(scope, stage, detail string, dur time.Duration) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.seq++
	sp := Span{Seq: t.seq, Time: now, Scope: scope, Stage: stage, Detail: detail, Dur: dur}
	if t.n == len(t.ring) {
		t.ring[t.head] = sp
		t.head = (t.head + 1) % len(t.ring)
	} else {
		t.ring[(t.head+t.n)%len(t.ring)] = sp
		t.n++
	}
	t.mu.Unlock()
}

// Len returns the number of retained spans. Safe on a nil tracer.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Recent returns up to max retained spans (all when max <= 0), oldest
// first. The result is a copy. Safe on a nil tracer.
func (t *Tracer) Recent(max int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Span, n)
	for i := 0; i < n; i++ {
		// The newest n spans, preserving order.
		out[i] = t.ring[(t.head+t.n-n+i)%len(t.ring)]
	}
	return out
}

// WriteJSON renders up to max retained spans (all when max <= 0) as a
// JSON array, oldest first. Safe on a nil tracer (renders []).
func (t *Tracer) WriteJSON(w io.Writer, max int) error {
	spans := t.Recent(max)
	if spans == nil {
		spans = []Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
