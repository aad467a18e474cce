package vdl

import (
	"fmt"
	"sort"
	"strconv"
)

// matview is one incrementally-maintained view: delta operators over
// the shared base-table mirrors keep its output state current with
// O(delta) work per MIB write, and result() renders the evaluator-
// order Result on demand.
type matview struct {
	def   *ViewDef
	left  *baseTable
	right *baseTable // nil unless join

	aggregate bool
	selfJoin  bool // both sides range over the same table

	// broken marks delta state invalid after an evaluation error;
	// needRebuild requests a full recompute (overflow resync, self-join
	// change). Both are repaired by rebuild() at the next query.
	broken      bool
	needRebuild bool
	err         error

	// outRows maps an env key (row key, or leftKey\x00rightKey for
	// joins) to its evaluated select cells — only envs that matched the
	// join and passed the where clause are present.
	outRows map[string][]Value

	// Join index maps: per-key row sets on both sides, plus each row's
	// current join key, so one row's delta touches only its match set.
	leftKeyOf  map[string]string
	rightKeyOf map[string]string
	leftByKey  map[string]map[string]struct{}
	rightByKey map[string]map[string]struct{}

	// Aggregate state: the flattened Agg nodes in select-traversal
	// order, one accumulator each, and the per-kept-env input values
	// needed to retract.
	aggs []Agg
	accs []*aggAcc
	kept map[string][]Value

	cached     *Result
	recomputes uint64
}

func newMatview(def *ViewDef, left, right *baseTable) *matview {
	mv := &matview{def: def, left: left, right: right}
	mv.selfJoin = right != nil && right == left
	for _, s := range def.Select {
		if hasAgg(s.Expr) {
			mv.aggregate = true
		}
	}
	if mv.aggregate {
		for _, s := range def.Select {
			mv.aggs = collectAggs(s.Expr, mv.aggs)
		}
	}
	mv.reset()
	return mv
}

// collectAggs flattens aggregate nodes in evaluation-traversal order
// (Bin left before right, then Un operand), matching evalClean.
func collectAggs(e Expr, out []Agg) []Agg {
	switch n := e.(type) {
	case Agg:
		return append(out, n)
	case Bin:
		return collectAggs(n.R, collectAggs(n.L, out))
	case Un:
		return collectAggs(n.X, out)
	}
	return out
}

// reset clears all maintained state.
func (mv *matview) reset() {
	mv.outRows = make(map[string][]Value)
	mv.leftKeyOf = make(map[string]string)
	mv.rightKeyOf = make(map[string]string)
	mv.leftByKey = make(map[string]map[string]struct{})
	mv.rightByKey = make(map[string]map[string]struct{})
	mv.kept = make(map[string][]Value)
	mv.accs = mv.accs[:0]
	for range mv.aggs {
		mv.accs = append(mv.accs, &aggAcc{})
	}
	mv.cached = nil
	mv.broken = false
	mv.err = nil
}

// fail marks the view's delta state invalid; the next query repairs it
// with a counted full recompute.
func (mv *matview) fail(err error) {
	mv.broken = true
	mv.err = err
}

// joinKey renders a join value as a map key with exactly looseEqual's
// equivalence: numeric values (int64/float64) collapse through float64,
// everything else is typed verbatim.
func joinKey(v Value) string {
	switch x := v.(type) {
	case nil:
		return "~"
	case bool:
		if x {
			return "b1"
		}
		return "b0"
	case int64:
		return "n" + strconv.FormatFloat(float64(x), 'g', -1, 64)
	case float64:
		return "n" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + x
	default:
		return fmt.Sprintf("v%v", x)
	}
}

func pairKey(lk, rk string) string { return lk + "\x00" + rk }

// rowDelta folds one base-row change (old or new may be nil for
// insert/delete) into the view state. The mirror already holds new.
func (mv *matview) rowDelta(side int, old, new *brow) {
	if mv.broken || mv.needRebuild {
		return
	}
	mv.cached = nil
	if mv.selfJoin || side < 0 {
		// A self-join delta would touch both sides at once; decline and
		// recompute at the next read.
		mv.needRebuild = true
		return
	}
	switch {
	case mv.def.Join == nil:
		mv.soloDelta(old, new)
	case side == 0:
		mv.leftDelta(old, new)
	default:
		mv.rightDelta(old, new)
	}
}

func rowKey(old, new *brow) string {
	if old != nil {
		return old.key
	}
	return new.key
}

// soloDelta maintains a single-table view: re-filter and re-project
// just the changed row.
func (mv *matview) soloDelta(old, new *brow) {
	key := rowKey(old, new)
	mv.removeEnv(key)
	if new == nil {
		return
	}
	env := newEnv()
	env.add(mv.def.From.Alias, new.cells)
	mv.addEnv(key, env)
}

// leftDelta maintains the from-side of a join: drop the row's current
// pairs via the per-key index, then re-key and re-pair against the
// right side's match set only.
func (mv *matview) leftDelta(old, new *brow) {
	key := rowKey(old, new)
	if jk, ok := mv.leftKeyOf[key]; ok {
		for rk := range mv.rightByKey[jk] {
			mv.removeEnv(pairKey(key, rk))
		}
		mv.dropSide(mv.leftByKey, mv.leftKeyOf, key, jk)
	}
	if new == nil {
		return
	}
	env := newEnv()
	env.add(mv.def.From.Alias, new.cells)
	v, err := env.lookup(mv.def.Join.LeftCol)
	if err != nil {
		mv.fail(err)
		return
	}
	jk := joinKey(v)
	mv.addSide(mv.leftByKey, mv.leftKeyOf, key, jk)
	for rk := range mv.rightByKey[jk] {
		mv.addPair(key, rk)
	}
}

// rightDelta is leftDelta's mirror image for the joined table.
func (mv *matview) rightDelta(old, new *brow) {
	key := rowKey(old, new)
	if jk, ok := mv.rightKeyOf[key]; ok {
		for lk := range mv.leftByKey[jk] {
			mv.removeEnv(pairKey(lk, key))
		}
		mv.dropSide(mv.rightByKey, mv.rightKeyOf, key, jk)
	}
	if new == nil {
		return
	}
	env := newEnv()
	env.add(mv.def.Join.Right.Alias, new.cells)
	v, err := env.lookup(mv.def.Join.RightCol)
	if err != nil {
		mv.fail(err)
		return
	}
	jk := joinKey(v)
	mv.addSide(mv.rightByKey, mv.rightKeyOf, key, jk)
	for lk := range mv.leftByKey[jk] {
		mv.addPair(lk, key)
	}
}

func (mv *matview) addSide(byKey map[string]map[string]struct{}, keyOf map[string]string, row, jk string) {
	keyOf[row] = jk
	set := byKey[jk]
	if set == nil {
		set = make(map[string]struct{})
		byKey[jk] = set
	}
	set[row] = struct{}{}
}

func (mv *matview) dropSide(byKey map[string]map[string]struct{}, keyOf map[string]string, row, jk string) {
	delete(keyOf, row)
	if set := byKey[jk]; set != nil {
		delete(set, row)
		if len(set) == 0 {
			delete(byKey, jk)
		}
	}
}

// addPair evaluates one joined row pair from the current mirrors.
func (mv *matview) addPair(lk, rk string) {
	lrow, rrow := mv.left.rows[lk], mv.right.rows[rk]
	if lrow == nil || rrow == nil {
		return
	}
	env := newEnv()
	env.add(mv.def.From.Alias, lrow.cells)
	env.add(mv.def.Join.Right.Alias, rrow.cells)
	mv.addEnv(pairKey(lk, rk), env)
}

// addEnv applies the where clause and either projects the row into
// outRows or folds it into the aggregate accumulators.
func (mv *matview) addEnv(envKey string, env *env) {
	if mv.def.Where != nil {
		cond, err := evalExpr(mv.def.Where, env)
		if err != nil {
			mv.fail(err)
			return
		}
		if !truthy(cond) {
			return
		}
	}
	if mv.aggregate {
		vals := make([]Value, len(mv.aggs))
		for i, ag := range mv.aggs {
			if ag.Fn == "count" {
				continue
			}
			v, err := evalExpr(ag.X, env)
			if err != nil {
				mv.fail(err)
				return
			}
			vals[i] = v
		}
		for i := range mv.accs {
			mv.accs[i].add(mv.aggs[i], vals[i])
		}
		mv.kept[envKey] = vals
		return
	}
	cells := make([]Value, len(mv.def.Select))
	for i, s := range mv.def.Select {
		v, err := evalExpr(s.Expr, env)
		if err != nil {
			mv.fail(err)
			return
		}
		cells[i] = v
	}
	mv.outRows[envKey] = cells
}

// removeEnv retracts a previously-kept env, if it was kept.
func (mv *matview) removeEnv(envKey string) {
	if mv.aggregate {
		vals, ok := mv.kept[envKey]
		if !ok {
			return
		}
		for i := range mv.accs {
			mv.accs[i].retract(mv.aggs[i], vals[i])
		}
		delete(mv.kept, envKey)
		return
	}
	delete(mv.outRows, envKey)
}

// rebuild recomputes the whole view state by folding every mirrored row
// into the emptied state as an insertion: the right side first, so the
// join index exists when the left rows pair against it. It stops at the
// first evaluation error.
func (mv *matview) rebuild() error {
	mv.reset()
	mv.needRebuild = false
	fold := func(rows map[string]*brow, delta func(old, new *brow)) {
		for _, row := range rows {
			if mv.broken {
				return
			}
			delta(nil, row)
		}
	}
	if mv.def.Join == nil {
		fold(mv.left.rows, mv.soloDelta)
	} else {
		fold(mv.right.rows, mv.rightDelta)
		fold(mv.left.rows, mv.leftDelta)
	}
	return mv.err
}

// result renders the maintained state as a Result in the exact order a
// from-scratch Eval would produce.
func (mv *matview) result() (*Result, error) {
	if mv.cached != nil {
		return mv.cached, nil
	}
	res := &Result{View: mv.def.Name}
	for _, s := range mv.def.Select {
		res.Columns = append(res.Columns, s.Name)
	}
	res.BaseRows = len(mv.left.rows)
	if mv.right != nil {
		res.BaseRows += len(mv.right.rows)
	}
	switch {
	case mv.aggregate:
		cells, err := mv.aggCells()
		if err != nil {
			return nil, err
		}
		res.Rows = []Row{{Cells: cells}}
	case mv.def.Join == nil:
		for _, lk := range mv.left.orderKeys() {
			if cells, ok := mv.outRows[lk]; ok {
				res.Rows = append(res.Rows, Row{Index: mv.left.rows[lk].index, Cells: cells})
			}
		}
	default:
		for _, lk := range mv.left.orderKeys() {
			jk, ok := mv.leftKeyOf[lk]
			if !ok {
				continue
			}
			for _, rk := range mv.matchesInOrder(jk) {
				if cells, ok := mv.outRows[pairKey(lk, rk)]; ok {
					res.Rows = append(res.Rows, Row{Index: mv.left.rows[lk].index, Cells: cells})
				}
			}
		}
	}
	mv.cached = res
	return res, nil
}

// matchesInOrder returns the right-side rows matching jk sorted in the
// right table's materialize order.
func (mv *matview) matchesInOrder(jk string) []string {
	set := mv.rightByKey[jk]
	if len(set) == 0 {
		return nil
	}
	pos := make(map[string]int, len(mv.right.rows))
	for i, rk := range mv.right.orderKeys() {
		pos[rk] = i
	}
	out := make([]string, 0, len(set))
	for rk := range set {
		out = append(out, rk)
	}
	sort.Slice(out, func(i, j int) bool { return pos[out[i]] < pos[out[j]] })
	return out
}

// aggCells computes the single aggregate result row: from the exact
// accumulators when every aggregate is still invertible, otherwise by
// recombining over the kept envs in evaluator order (the
// decline-and-recombine path for Min/Max and float accumulation).
func (mv *matview) aggCells() ([]Value, error) {
	clean := true
	for _, acc := range mv.accs {
		if acc.needRecombine() {
			clean = false
			break
		}
	}
	cells := make([]Value, len(mv.def.Select))
	if clean {
		i := 0
		for j, s := range mv.def.Select {
			v, err := mv.evalClean(s.Expr, &i)
			if err != nil {
				return nil, err
			}
			cells[j] = v
		}
		return cells, nil
	}
	envs := mv.keptEnvs()
	for j, s := range mv.def.Select {
		v, err := evalAggregate(s.Expr, envs)
		if err != nil {
			return nil, err
		}
		cells[j] = v
	}
	return cells, nil
}

// evalClean evaluates a select expression substituting accumulator
// values for aggregate calls, consuming accs in collectAggs order.
func (mv *matview) evalClean(e Expr, i *int) (Value, error) {
	switch n := e.(type) {
	case Agg:
		acc := mv.accs[*i]
		*i++
		return acc.value(n), nil
	case Bin:
		l, err := mv.evalClean(n.L, i)
		if err != nil {
			return nil, err
		}
		r, err := mv.evalClean(n.R, i)
		if err != nil {
			return nil, err
		}
		return evalBinOp(n.Op, l, r)
	case Un:
		x, err := mv.evalClean(n.X, i)
		if err != nil {
			return nil, err
		}
		return evalUnOp(n.Op, x)
	case Lit:
		return n.V, nil
	case ColRef:
		return nil, fmt.Errorf("vdl: bare column %q in aggregate select", n.Col)
	default:
		return nil, fmt.Errorf("vdl: unknown expression %T", e)
	}
}

// keptEnvs rebuilds the kept row environments in evaluator order.
func (mv *matview) keptEnvs() []*env {
	var envs []*env
	if mv.def.Join == nil {
		for _, lk := range mv.left.orderKeys() {
			if _, ok := mv.kept[lk]; !ok {
				continue
			}
			env := newEnv()
			env.add(mv.def.From.Alias, mv.left.rows[lk].cells)
			envs = append(envs, env)
		}
		return envs
	}
	for _, lk := range mv.left.orderKeys() {
		jk, ok := mv.leftKeyOf[lk]
		if !ok {
			continue
		}
		for _, rk := range mv.matchesInOrder(jk) {
			if _, ok := mv.kept[pairKey(lk, rk)]; !ok {
				continue
			}
			env := newEnv()
			env.add(mv.def.From.Alias, mv.left.rows[lk].cells)
			env.add(mv.def.Join.Right.Alias, mv.right.rows[rk].cells)
			envs = append(envs, env)
		}
	}
	return envs
}

// aggAcc is one aggregate's add/retract accumulator. Count and integer
// sum/avg are exactly invertible; min/max and float accumulation follow
// the decline-and-recombine pattern (see federation.Combiner): a
// retraction of the current best, or any non-integer input, declines
// incremental maintenance and defers to a recombine over the kept set.
type aggAcc struct {
	n        int64
	sum      int64 // exact while every input is int64
	approx   bool  // sum/avg saw a non-int64 input
	best     Value
	declined bool // min/max lost its extremum or saw a non-int64 input
}

func (a *aggAcc) add(ag Agg, v Value) {
	a.n++
	switch ag.Fn {
	case "sum", "avg":
		if i, ok := v.(int64); ok {
			if !a.approx {
				a.sum += i
			}
		} else {
			a.approx = true
		}
	case "min", "max":
		if a.declined {
			return
		}
		i, ok := v.(int64)
		if !ok {
			a.declined = true
			a.best = nil
			return
		}
		if a.best == nil {
			a.best = v
			return
		}
		b := a.best.(int64)
		if (ag.Fn == "min" && i < b) || (ag.Fn == "max" && i > b) {
			a.best = v
		}
	}
}

func (a *aggAcc) retract(ag Agg, v Value) {
	a.n--
	switch ag.Fn {
	case "sum", "avg":
		if i, ok := v.(int64); ok {
			if !a.approx {
				a.sum -= i
			}
		} else {
			a.approx = true
		}
	case "min", "max":
		if a.declined {
			return
		}
		if a.best != nil && looseEqual(v, a.best) {
			a.declined = true
			a.best = nil
		}
	}
}

func (a *aggAcc) needRecombine() bool { return a.approx || a.declined }

// value returns the accumulator's current aggregate value; only valid
// when needRecombine is false. The result types match Eval exactly:
// count is int64, sum/avg are float64 (nil avg over zero rows), min/max
// return the best value (nil over zero rows).
func (a *aggAcc) value(ag Agg) Value {
	switch ag.Fn {
	case "count":
		return a.n
	case "sum":
		return float64(a.sum)
	case "avg":
		if a.n == 0 {
			return nil
		}
		return float64(a.sum) / float64(a.n)
	default: // min, max
		if a.n == 0 {
			return nil
		}
		return a.best
	}
}
