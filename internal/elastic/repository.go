package elastic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// ErrRepositoryFull is returned by Store when accepting a program would
// push the repository past its byte ceiling. It is typed so callers
// (and the RDS wire path) can distinguish storage exhaustion from a
// policy rejection.
var ErrRepositoryFull = errors.New("elastic: repository full")

// DP is a delegated program: source code accepted by the Translator,
// its compiled object code, and bookkeeping. DPs are immutable once
// stored.
type DP struct {
	Name     string
	Owner    string // delegating principal
	Lang     string // "dpl" in this implementation
	Source   string
	Object   *dpl.Compiled
	StoredAt time.Duration // process-clock time of delegation

	// Effects is the admission-time static summary of what the program
	// can reach (host bindings, MIB OID prefixes), recovered from its
	// object code by this node: for a DP admitted from bytecode, what
	// this node proved, not what the sender declared.
	Effects analysis.Effects
	// Cost is the admission-time static cost estimate.
	Cost analysis.CostEstimate
	// StepBudget is the VM step quota derived from Cost at admission
	// (already clamped to the server quota); 0 means unlimited.
	StepBudget uint64

	// Program is the shippable verified-bytecode artifact: object code
	// plus the analysis verdict, content-addressed by source hash. The
	// federation layer forwards it so downstream hops verify instead of
	// re-compiling. Nil only for DPs stored before this tier existed.
	Program *dpl.CompiledProgram

	// analysisNS is the translation+admission latency, kept for the
	// delegate trace span.
	analysisNS time.Duration

	// size is the program's storage footprint in bytes (source length,
	// or blob length for pre-compiled programs), fixed at admission and
	// charged against the repository ceiling and the owner's tenant
	// ledger.
	size int64
}

// Size returns the program's storage footprint in bytes.
func (dp *DP) Size() int64 { return dp.size }

// Repository stores delegated programs, the paper's "common database
// service to store dps". It supports store, lookup, delete and listing,
// and enforces an optional byte ceiling over the total stored program
// size. The zero value is unusable; call NewRepository.
type Repository struct {
	mu    sync.RWMutex
	dps   map[string]*DP
	bytes int64 // total size of stored programs
	limit int64 // byte ceiling; <= 0 means unlimited
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{dps: make(map[string]*DP)}
}

// SetLimit installs the repository byte ceiling; n <= 0 removes it.
// Programs already stored are never evicted — the ceiling gates new
// admissions only.
func (r *Repository) SetLimit(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.limit = n
}

// Store saves dp, replacing any previous program of the same name
// (re-delegation updates the program; running instances keep their
// already-instantiated object code). It returns the replaced program,
// if any, so the caller can settle per-owner byte accounting. When the
// store would push the repository past its byte ceiling it returns
// ErrRepositoryFull and stores nothing — replacement only charges the
// delta, so re-delegating an existing program always fits if the new
// body is no larger.
func (r *Repository) Store(dp *DP) (*DP, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeLocked(dp)
}

func (r *Repository) storeLocked(dp *DP) (*DP, error) {
	prev := r.dps[dp.Name]
	next, err := r.fitsLocked(dp.size, prev)
	if err != nil {
		return nil, err
	}
	r.dps[dp.Name] = dp
	r.bytes = next
	return prev, nil
}

// fits returns ErrRepositoryFull when a program of size bytes, stored
// in place of prev (nil for none), would take the repository past its
// byte ceiling.
func (r *Repository) fits(size int64, prev *DP) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, err := r.fitsLocked(size, prev)
	return err
}

// fitsLocked is fits, returning the bytes the repository would then
// hold.
func (r *Repository) fitsLocked(size int64, prev *DP) (int64, error) {
	next := r.bytes + size
	if prev != nil {
		next -= prev.size
	}
	if r.limit > 0 && next > r.limit {
		return 0, fmt.Errorf("%w: %d bytes stored, %d byte program over the %d byte ceiling",
			ErrRepositoryFull, r.bytes, size, r.limit)
	}
	return next, nil
}

// StoreAll stores every program or none: a failed ceiling check leaves
// the repository exactly as it was. Used by checkpoint restore, where a
// half-loaded repository is worse than a failed load. The returned
// slice is aligned with dps: replaced[i] is the program dps[i]
// displaced, or nil.
func (r *Repository) StoreAll(dps []*DP) ([]*DP, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var need int64
	for _, dp := range dps {
		need += dp.size
		if prev, ok := r.dps[dp.Name]; ok {
			need -= prev.size
		}
	}
	if r.limit > 0 && r.bytes+need > r.limit {
		return nil, fmt.Errorf("%w: restoring %d programs needs %d bytes over the %d byte ceiling",
			ErrRepositoryFull, len(dps), r.bytes+need-r.limit, r.limit)
	}
	replaced := make([]*DP, len(dps))
	for i, dp := range dps {
		prev, err := r.storeLocked(dp)
		if err != nil {
			// Unreachable: the aggregate check above covered the batch.
			return replaced, err
		}
		replaced[i] = prev
	}
	return replaced, nil
}

// Lookup fetches a program by name.
func (r *Repository) Lookup(name string) (*DP, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dp, ok := r.dps[name]
	return dp, ok
}

// Delete removes a program, returning it (for byte-ledger settlement)
// and whether it existed.
func (r *Repository) Delete(name string) (*DP, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dp, ok := r.dps[name]
	if !ok {
		return nil, false
	}
	delete(r.dps, name)
	r.bytes -= dp.size
	return dp, true
}

// List returns the stored programs sorted by name.
func (r *Repository) List() []*DP {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*DP, 0, len(r.dps))
	for _, dp := range r.dps {
		out = append(out, dp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of stored programs.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.dps)
}

// Translator checks and compiles DP source against the process's
// allowed-function table. "If the dp violates any of a set of defined
// rules for the given language, the dp is rejected."
type Translator struct {
	bindings *dpl.Bindings
}

// NewTranslator returns a Translator for the given host bindings.
func NewTranslator(bindings *dpl.Bindings) *Translator {
	return &Translator{bindings: bindings}
}

// TranslateAnalyzed translates source and additionally runs the static
// analyzer over it, returning both the object code and the analysis
// report. A parse error or a Translator rule violation comes back as a
// *RejectError carrying its coded diagnostics. The report is non-nil
// whenever the program parses and compiles; deciding what to do with
// its diagnostics (reject, warn, derive a step budget) is the caller's
// admission policy.
func (t *Translator) TranslateAnalyzed(lang, source string) (*dpl.Compiled, *analysis.Report, error) {
	if lang != "dpl" {
		return nil, nil, fmt.Errorf("elastic: unsupported dp language %q (this process accepts \"dpl\")", lang)
	}
	// Every pass works in one scratch, which nothing translated refers
	// to: it goes to the next admission.
	s := analysis.Borrow()
	defer s.Release()
	prog, err := s.Parse(source)
	var obj *dpl.Compiled
	var rep *analysis.Report
	if err == nil {
		// The verdict is recovered from the optimized object code, the
		// bytes this node runs and ships and every receiver verifies.
		obj, rep, err = s.Translate(prog, t.bindings)
	}
	if rej, ok := err.(*dpl.Error); ok {
		return nil, nil, &RejectError{Diags: rej.Diags}
	}
	if err != nil {
		return nil, nil, err
	}
	return obj, rep, nil
}
