package analysis

import (
	"fmt"

	"mbd/internal/dpl"
)

// Dataflow passes over the CFG: definite assignment (forward, must) and
// liveness (backward, may). Both run to fixpoint on block boundary
// states, then a final per-block walk produces diagnostics.

// varID numbers the variables one function can name: the program's
// globals by declaration index, then the function's frame slots
// (parameters first), as dpl.Check bound them. varNone marks a name
// bound to no variable (the program failed Check, or the name is a
// function).
type varID int

const varNone varID = -1

// frame is the variable numbering of one function; with fn nil, of the
// globals alone.
type frame struct {
	globals []*dpl.VarDecl
	fn      *dpl.FuncDecl
}

func (fr frame) size() int { return len(fr.globals) + len(fr.fn.Locals) }

// ident returns the variable n is bound to.
func (fr frame) ident(n *dpl.Ident) varID {
	switch {
	case n.Slot < 0:
		return varNone
	case n.Global:
		return varID(n.Slot)
	}
	return varID(len(fr.globals) + n.Slot)
}

// local returns the variable a local declaration introduces.
func (fr frame) local(d *dpl.VarDecl) varID { return varID(len(fr.globals) + d.Slot) }

func (fr frame) global(id varID) bool { return int(id) < len(fr.globals) }

// assignedAtEntry reports whether id is a global or a parameter.
func (fr frame) assignedAtEntry(id varID) bool {
	return int(id) < len(fr.globals)+len(fr.fn.Params)
}

func (fr frame) name(id varID) string {
	if fr.global(id) {
		return fr.globals[id].Name
	}
	return fr.fn.Locals[int(id)-len(fr.globals)]
}

// eachUse walks e and calls fn for every bound variable read. Assign
// targets are not "uses" — callers handle them explicitly.
func (fr frame) eachUse(e dpl.Expr, fn func(id varID, pos dpl.Pos)) {
	inspect(e, func(n dpl.Node) bool {
		if x, ok := n.(*dpl.Ident); ok {
			if id := fr.ident(x); id != varNone {
				fn(id, x.Position())
			}
		}
		return true
	})
}

// bitset is a fixed-universe variable set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i varID) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) set(i varID)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i varID)    { b[i/64] &^= 1 << (uint(i) % 64) }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// intersect b &= o, reporting whether b changed.
func (b bitset) intersect(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// union b |= o, reporting whether b changed.
func (b bitset) union(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// definiteAssignment runs the must-assigned analysis on g and appends
// DPL001 diagnostics for reads of possibly-uninitialized locals.
// Globals and parameters count as assigned at entry (globals are
// initialized by the program prologue, to nil at worst; the
// never-written-global case is a separate program-level check).
func definiteAssignment(g *Graph, fr frame, diags *[]dpl.Diagnostic) {
	nvars := fr.size()
	entry := newBitset(nvars)
	for i := 0; i < len(fr.globals)+len(fr.fn.Params); i++ {
		entry.set(varID(i))
	}

	in := make(map[*Block]bitset, len(g.Blocks))
	for _, b := range g.Blocks {
		s := newBitset(nvars)
		if b == g.Entry {
			copy(s, entry)
		} else {
			s.fill() // ⊤ for the must-intersection
		}
		in[b] = s
	}

	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[b].clone()
		daTransfer(b, out, fr, nil)
		for _, s := range b.Succs {
			if in[s].intersect(out) {
				work = append(work, s)
			}
		}
	}

	reach := g.Reachable()
	reported := make(map[dpl.Pos]bool)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue // unreachable code is reported by DPL002
		}
		state := in[b].clone()
		daTransfer(b, state, fr, func(id varID, pos dpl.Pos) {
			if reported[pos] {
				return
			}
			reported[pos] = true
			*diags = append(*diags, dpl.Diagnostic{
				Code: dpl.CodeUseBeforeInit,
				Sev:  dpl.SevWarning,
				Pos:  pos,
				Msg:  fmt.Sprintf("variable %q may be used before it is assigned (reads as nil)", fr.name(id)),
			})
		})
	}
}

// daTransfer applies block b to the assigned-set state. When report is
// non-nil, each read of an unassigned local is reported.
func daTransfer(b *Block, state bitset, fr frame, report func(varID, dpl.Pos)) {
	check := func(e dpl.Expr) {
		if report == nil {
			return
		}
		fr.eachUse(e, func(id varID, pos dpl.Pos) {
			if !fr.assignedAtEntry(id) && !state.has(id) {
				report(id, pos)
			}
		})
	}
	for _, node := range b.Nodes {
		switch n := node.(type) {
		case *dpl.VarDecl:
			if n.Init != nil {
				check(n.Init)
				state.set(fr.local(n))
			}
		case *dpl.AssignStmt:
			check(n.Value)
			switch t := n.Target.(type) {
			case *dpl.Ident:
				if n.Op != dpl.TokAssign {
					check(t) // compound assignment reads the old value
				}
				if id := fr.ident(t); id != varNone {
					state.set(id)
				}
			case *dpl.IndexExpr:
				check(t) // x[i] = v reads both x and i
			}
		case *dpl.ExprStmt:
			check(n.X)
		case *dpl.ReturnStmt:
			if n.Value != nil {
				check(n.Value)
			}
		case dpl.Expr: // branch condition
			check(n)
		}
	}
}

// liveness runs the backward may-live analysis and appends DPL003
// dead-store diagnostics for assignments to locals that no later read
// observes. Globals are exempt: they outlive every activation.
func liveness(g *Graph, fr frame, diags *[]dpl.Diagnostic) {
	nvars := fr.size()
	out := make(map[*Block]bitset, len(g.Blocks))
	for _, b := range g.Blocks {
		out[b] = newBitset(nvars)
	}

	changed := true
	for changed {
		changed = false
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			b := g.Blocks[i]
			state := out[b].clone()
			liveTransfer(b, state, fr, nil)
			for _, p := range b.Preds {
				if out[p].union(state) {
					changed = true
				}
			}
		}
	}

	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		state := out[b].clone()
		liveTransfer(b, state, fr, func(id varID, pos dpl.Pos, decl bool) {
			verb := "assigned to"
			if decl {
				verb = "stored in"
			}
			*diags = append(*diags, dpl.Diagnostic{
				Code: dpl.CodeDeadStore,
				Sev:  dpl.SevWarning,
				Pos:  pos,
				Msg:  fmt.Sprintf("value %s %q is never used", verb, fr.name(id)),
			})
		})
	}
}

// liveTransfer applies block b backward to the live-set state. When
// report is non-nil it is called for each dead store (decl=true for a
// VarDecl initializer).
func liveTransfer(b *Block, state bitset, fr frame, report func(varID, dpl.Pos, bool)) {
	gen := func(e dpl.Expr) {
		fr.eachUse(e, func(id varID, _ dpl.Pos) { state.set(id) })
	}
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		switch n := b.Nodes[i].(type) {
		case *dpl.VarDecl:
			if id := fr.local(n); n.Init != nil {
				if report != nil && !state.has(id) && !isTrivial(n.Init) {
					report(id, n.Position(), true)
				}
				state.clear(id)
			}
			if n.Init != nil {
				gen(n.Init)
			}
		case *dpl.AssignStmt:
			switch t := n.Target.(type) {
			case *dpl.Ident:
				if id := fr.ident(t); id != varNone {
					if report != nil && !fr.global(id) && !state.has(id) {
						report(id, n.Position(), false)
					}
					state.clear(id)
					if n.Op != dpl.TokAssign {
						state.set(id) // compound assignment also reads
					}
				}
			case *dpl.IndexExpr:
				gen(t)
			}
			gen(n.Value)
		case *dpl.ExprStmt:
			gen(n.X)
		case *dpl.ReturnStmt:
			if n.Value != nil {
				gen(n.Value)
			}
		case dpl.Expr: // branch condition
			gen(n)
		}
	}
}

// isTrivial reports whether e is a bare literal initializer.
// `var x = 0;` followed by an unconditional re-assignment is a common,
// harmless idiom — only initializers that do work are worth a DPL003.
func isTrivial(e dpl.Expr) bool {
	switch e.(type) {
	case *dpl.IntLit, *dpl.FloatLit, *dpl.StringLit, *dpl.BoolLit, *dpl.NilLit:
		return true
	}
	return false
}

// globalDiags reports DPL004 for globals that are read somewhere but
// have no initializer and no assignment anywhere in the program, at the
// first read: in the global initializers, else in source order through
// the functions.
func globalDiags(prog *dpl.Program, diags *[]dpl.Diagnostic) {
	fr := frame{globals: prog.Globals}
	written := make([]bool, len(prog.Globals))
	firstRead := make([]dpl.Pos, len(prog.Globals)) // Line 0: not read
	noteReads := func(e dpl.Expr) {
		fr.eachUse(e, func(id varID, pos dpl.Pos) {
			if fr.global(id) && firstRead[id].Line == 0 {
				firstRead[id] = pos
			}
		})
	}
	for i, g := range prog.Globals {
		if g.Init != nil {
			written[i] = true
			noteReads(g.Init)
		}
	}
	for _, f := range prog.Funcs {
		inspect(f.Body, func(n dpl.Node) bool {
			switch n := n.(type) {
			case *dpl.AssignStmt:
				if t, ok := n.Target.(*dpl.Ident); ok && t.Global && t.Slot >= 0 {
					written[t.Slot] = true
					if n.Op != dpl.TokAssign {
						noteReads(t)
					}
					noteReads(n.Value)
					return false
				}
			case dpl.Expr:
				noteReads(n)
				return false
			}
			return true
		})
	}
	for i, g := range prog.Globals {
		if written[i] || firstRead[i].Line == 0 {
			continue
		}
		*diags = append(*diags, dpl.Diagnostic{
			Code: dpl.CodeGlobalNeverWritten,
			Sev:  dpl.SevWarning,
			Pos:  firstRead[i],
			Msg:  fmt.Sprintf("global %q is read but never written anywhere (always nil)", g.Name),
		})
	}
}
