package federation

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// MemberValue is one member's latest contribution to a rollup key.
type MemberValue struct {
	Member string
	Value  string
	TimeMS int64
}

// Combiner merges the per-member latest values of one rollup key into
// a single upstream value: it seeds per-key state from the full
// contribution set once, then folds individual member deltas in O(1) —
// the property that lets a 10k-member tree converge without O(members)
// recomputation per report. A fold may decline when the delta
// invalidates the materialized state (e.g. the current max winner
// degrades); the Rollup then reseeds from the full set.
type Combiner interface {
	// Name identifies the combiner in status documents.
	Name() string
	// Seed materializes st from vals (never empty, sorted by member
	// name, so a deterministic combiner yields a deterministic rollup)
	// and returns the combined value.
	Seed(st *KeyState, vals []MemberValue) string
	// Fold applies one member delta to st: prev/had is the member's
	// displaced contribution, next/have its new one (have=false is a
	// removal). It returns the new combined value, or ok=false when the
	// state cannot absorb this delta.
	Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (combined string, ok bool)
}

// KeyState is a combiner's materialized per-key state: whatever it
// needs to fold one member delta without revisiting the other members.
// Num and Best cover the built-in combiners.
type KeyState struct {
	Num  float64
	Best MemberValue
}

// numeric parses s as a float, treating unparseable values as 0 — a
// rollup must stay total even when one member misreports.
func numeric(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// renderNumber formats a combined numeric value: integral results print
// without a decimal point so counter rollups read like counters.
func renderNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// sumCombiner adds values numerically; folds adjust a running total.
type sumCombiner struct{}

func (sumCombiner) Name() string { return "sum" }

func (sumCombiner) Seed(st *KeyState, vals []MemberValue) string {
	total := 0.0
	for _, v := range vals {
		total += numeric(v.Value)
	}
	st.Num = total
	return renderNumber(total)
}

func (sumCombiner) Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (string, bool) {
	if had {
		st.Num -= numeric(prev.Value)
	}
	if have {
		st.Num += numeric(next.Value)
	}
	return renderNumber(st.Num), true
}

// Sum adds the members' values numerically.
func Sum() Combiner { return sumCombiner{} }

// maxCombiner keeps the largest value; folds track the winning member
// so only a winner's degrade or departure forces a recombine.
type maxCombiner struct{}

func (maxCombiner) Name() string { return "max" }

func (maxCombiner) Seed(st *KeyState, vals []MemberValue) string {
	st.Best = vals[0]
	st.Num = numeric(vals[0].Value)
	for _, v := range vals[1:] {
		if f := numeric(v.Value); f > st.Num {
			st.Best, st.Num = v, f
		}
	}
	return renderNumber(st.Num)
}

func (maxCombiner) Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (string, bool) {
	if !have {
		if prev.Member == st.Best.Member {
			return "", false // the winner left: recombine
		}
		return renderNumber(st.Num), true
	}
	f := numeric(next.Value)
	if next.Member == st.Best.Member {
		if f < st.Num {
			return "", false // the winner degraded: recombine
		}
		st.Best, st.Num = next, f
	} else if f > st.Num {
		st.Best, st.Num = next, f
	}
	return renderNumber(st.Num), true
}

// Max keeps the numerically largest member value.
func Max() Combiner { return maxCombiner{} }

// latestCombiner keeps the most recent report; folds track the holder.
type latestCombiner struct{}

func (latestCombiner) Name() string { return "latest" }

func (latestCombiner) Seed(st *KeyState, vals []MemberValue) string {
	st.Best = vals[0]
	for _, v := range vals[1:] {
		if v.TimeMS > st.Best.TimeMS {
			st.Best = v
		}
	}
	return st.Best.Value
}

func (latestCombiner) Fold(st *KeyState, prev MemberValue, had bool, next MemberValue, have bool) (string, bool) {
	if !have {
		if prev.Member == st.Best.Member {
			return "", false // the holder left: recombine
		}
		return st.Best.Value, true
	}
	if next.Member == st.Best.Member {
		if next.TimeMS < st.Best.TimeMS {
			return "", false // holder's clock went backwards: recombine
		}
		st.Best = next
		return st.Best.Value, true
	}
	// Ties break on the smaller member name, matching Seed over the
	// sorted set.
	if next.TimeMS > st.Best.TimeMS || (next.TimeMS == st.Best.TimeMS && next.Member < st.Best.Member) {
		st.Best = next
	}
	return st.Best.Value, true
}

// Latest keeps the most recently reported value (ties break on member
// name, keeping the result deterministic).
func Latest() Combiner { return latestCombiner{} }

// RollupRow is one key's state in a rollup snapshot.
type RollupRow struct {
	Key          string
	Value        string
	Combiner     string
	Contributors int
	Updates      uint64
	UpdatedAt    time.Time
}

// RollupStats counts the aggregation work a rollup has done. The
// fleet-scale invariant lives in MembersVisited: with a folding combiner
// it grows by 1 per folded report instead of by the contributor count,
// so work per report is O(delta), not O(members).
type RollupStats struct {
	// Reports counts Report calls.
	Reports uint64
	// Folds counts deltas absorbed incrementally (O(1) work).
	Folds uint64
	// Recombines counts full recomputations (first sight of a key,
	// declined folds).
	Recombines uint64
	// MembersVisited totals contributions examined across folds and
	// recombines.
	MembersVisited uint64
}

// rollupKey holds one key's per-member latest values, its combined
// result, and the combiner's materialized state.
type rollupKey struct {
	vals      map[string]MemberValue
	state     KeyState
	combined  string
	updates   uint64
	updatedAt time.Time
}

// Rollup is a domain root's aggregation point: the latest value each
// member reported per key, merged by that key's combiner. Because each
// member holds exactly one slot per key, a member that re-joins after a
// crash replaces its old contribution instead of double-counting, and a
// member declared dead is dropped so the rollup converges back to the
// live membership.
type Rollup struct {
	mu       sync.Mutex
	comb     Combiner
	keys     map[string]*rollupKey
	stats    RollupStats
	onChange []func()
}

// NewRollup returns a rollup merging every key with comb (nil = Latest).
func NewRollup(comb Combiner) *Rollup {
	if comb == nil {
		comb = Latest()
	}
	return &Rollup{comb: comb, keys: make(map[string]*rollupKey)}
}

// combineLocked recomputes a key's merged value from its current
// contributions, reseeding the combiner's state (caller holds r.mu).
func (r *Rollup) combineLocked(k *rollupKey) string {
	vals := make([]MemberValue, 0, len(k.vals))
	for _, v := range k.vals {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Member < vals[j].Member })
	r.stats.Recombines++
	r.stats.MembersVisited += uint64(len(vals))
	k.state = KeyState{}
	return r.comb.Seed(&k.state, vals)
}

// foldLocked absorbs one member delta incrementally, falling back to a
// full recombine when the combiner declines the fold (caller holds
// r.mu; k.vals already reflects the delta and k.state was seeded by
// the combiner).
func (r *Rollup) foldLocked(k *rollupKey, prev MemberValue, had bool, next MemberValue, have bool) string {
	if combined, ok := r.comb.Fold(&k.state, prev, had, next, have); ok {
		r.stats.Folds++
		r.stats.MembersVisited++
		return combined
	}
	return r.combineLocked(k)
}

// OnChange registers fn to run (outside the rollup lock) after any
// accepted change to a combined value — a Report that moved a key, or a
// member drop that did. The federation MIB bridge uses this to publish
// rollup-table resets into a tree's change hub, driving incremental
// refresh of federation-scoped views at the parent.
func (r *Rollup) OnChange(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onChange = append(r.onChange, fn)
}

// notify runs the change callbacks; callers must not hold r.mu.
func (r *Rollup) notify() {
	r.mu.Lock()
	fns := r.onChange
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Report merges one member report and returns the key's combined value
// with whether it changed.
func (r *Rollup) Report(member, key, value string, timeMS int64) (combined string, changed bool) {
	combined, changed = r.report(member, key, value, timeMS)
	if changed {
		r.notify()
	}
	return combined, changed
}

func (r *Rollup) report(member, key, value string, timeMS int64) (combined string, changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Reports++
	k, ok := r.keys[key]
	if !ok {
		k = &rollupKey{vals: make(map[string]MemberValue)}
		r.keys[key] = k
	}
	prev, had := k.vals[member]
	nv := MemberValue{Member: member, Value: value, TimeMS: timeMS}
	k.vals[member] = nv
	var next string
	if !ok {
		next = r.combineLocked(k)
	} else {
		next = r.foldLocked(k, prev, had, nv, true)
	}
	changed = !ok || next != k.combined
	k.combined = next
	if changed {
		k.updates++
		k.updatedAt = time.Now()
	}
	return next, changed
}

// KeyUpdate describes one key whose combined value changed outside a
// Report — currently only when a dead member's contributions drop out.
type KeyUpdate struct {
	Key   string
	Value string
	// Removed marks a key left with no contributors at all.
	Removed bool
}

// DropMember removes every contribution by member — called when the
// failure detector declares it dead — and returns the keys whose
// combined values changed so the node can re-publish them.
func (r *Rollup) DropMember(member string) []KeyUpdate {
	out := r.dropMember(member)
	if len(out) > 0 {
		r.notify()
	}
	return out
}

func (r *Rollup) dropMember(member string) []KeyUpdate {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []KeyUpdate
	for key, k := range r.keys {
		prev, ok := k.vals[member]
		if !ok {
			continue
		}
		delete(k.vals, member)
		if len(k.vals) == 0 {
			delete(r.keys, key)
			out = append(out, KeyUpdate{Key: key, Removed: true})
			continue
		}
		next := r.foldLocked(k, prev, true, MemberValue{}, false)
		if next != k.combined {
			k.combined = next
			k.updates++
			k.updatedAt = time.Now()
			out = append(out, KeyUpdate{Key: key, Value: next})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Rows snapshots the rollup sorted by key.
func (r *Rollup) Rows() []RollupRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RollupRow, 0, len(r.keys))
	for key, k := range r.keys {
		out = append(out, RollupRow{
			Key:          key,
			Value:        k.combined,
			Combiner:     r.comb.Name(),
			Contributors: len(k.vals),
			Updates:      k.updates,
			UpdatedAt:    k.updatedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Value returns the combined value for key, if present.
func (r *Rollup) Value(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.keys[key]
	if !ok {
		return "", false
	}
	return k.combined, true
}

// String renders a short rollup summary for logs.
func (r *Rollup) String() string {
	rows := r.Rows()
	return fmt.Sprintf("rollup(%d keys)", len(rows))
}
