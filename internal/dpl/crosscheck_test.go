package dpl

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// progGen emits random, well-formed DPL programs over every value kind:
// ints (small, counter-sized, near ±2^53 and at the ±2^63 wrap), floats
// (including overflow to ±Inf, NaN and -0), strings (concat, index,
// compare, split, int, str, sprintf), and arrays and maps (literal,
// index, set, append, len, and aliasing through variables and calls).
//
// Expressions are typed, so most programs run to their return; a few
// constructs (int of an arbitrary string, an unguarded index, a float
// division by a difference, an ill-typed operand of a + chain) fail at
// run time on purpose, and then the engines must fail with the same
// text. The generator never lets an indexed assignment's target or
// index fail, because the interpreter evaluates the assigned value
// first and the VM last.
type progGen struct {
	r *rand.Rand
	// mib adds MIB host calls (see mibStmt). Such programs need the
	// MIB bindings, so only the static pipeline runs them.
	mib bool
	// report adds report calls to + chains (see chain), and the note
	// function that makes them. Such programs need a report binding.
	report bool
	b      strings.Builder
	depth  int
	names  int
	vars   [nKinds][]string // readable variables by kind
	wr     [nKinds][]string // assignable variables (loop counters excluded)
}

type genKind int

const (
	gInt genKind = iota
	gFloat
	gStr
	gArr
	gMap
	nKinds
)

func (g *progGen) pick(k genKind) (string, bool) {
	if len(g.vars[k]) == 0 {
		return "", false
	}
	return g.vars[k][g.r.Intn(len(g.vars[k]))], true
}

func (g *progGen) one(opts ...string) string { return opts[g.r.Intn(len(opts))] }

// deep reports whether the current expression is nested too far to grow.
func (g *progGen) deep() bool { return g.depth > 3 }

func (g *progGen) expr(k genKind) string {
	g.depth++
	defer func() { g.depth-- }()
	switch k {
	case gInt:
		return g.intExpr()
	case gFloat:
		return g.floatExpr()
	case gStr:
		return g.strExpr()
	case gArr:
		return g.arrExpr()
	default:
		return g.mapExpr()
	}
}

func (g *progGen) intLeaf() string {
	if v, ok := g.pick(gInt); ok && g.r.Intn(2) == 0 {
		return v
	}
	switch g.r.Intn(10) {
	case 0:
		// Either side of 2^53, where float64 stops being exact.
		return g.one("9007199254740991", "9007199254740992", "9007199254740993", "(-9007199254740993)", "(-9007199254740992)")
	case 1:
		return g.one("9223372036854775807", "(-9223372036854775807 - 1)", "4294967295", "123456789", "18446744073")
	default:
		return fmt.Sprint(g.r.Intn(201) - 100)
	}
}

func (g *progGen) intExpr() string {
	if g.deep() {
		return g.intLeaf()
	}
	switch g.r.Intn(16) {
	case 0, 1, 2:
		return g.intLeaf()
	case 3:
		return fmt.Sprintf("(%s + %s)", g.expr(gInt), g.expr(gInt))
	case 4:
		return fmt.Sprintf("(%s - %s)", g.expr(gInt), g.expr(gInt))
	case 5:
		return fmt.Sprintf("(%s * %s)", g.expr(gInt), g.intLeaf())
	case 6:
		return fmt.Sprintf("(%s / (%s %% 7 + 8))", g.expr(gInt), g.expr(gInt))
	case 7:
		return fmt.Sprintf("(%s %% (%s %% 5 + 6))", g.expr(gInt), g.expr(gInt))
	case 8:
		return fmt.Sprintf("-(%s)", g.expr(gInt))
	case 9:
		return fmt.Sprintf("len(%s)", g.expr(genKind(gStr+genKind(g.r.Intn(3)))))
	case 10:
		if a, ok := g.pick(gArr); ok {
			return fmt.Sprintf("%s[%s]", a, g.index(a))
		}
		return g.intLeaf()
	case 11:
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("int(str(%s))", g.expr(gInt))
		case 1:
			return fmt.Sprintf("int(split(str(%s) + \".\" + str(%s), \".\")[1])", g.expr(gInt), g.expr(gInt))
		case 2:
			return fmt.Sprintf("int(%s)", g.expr(gFloat))
		default:
			return fmt.Sprintf("int(%s)", g.one("true", "false", `"-42"`, `"+7"`))
		}
	case 12:
		// A byte of a string: guarded, so never out of range.
		s := g.expr(gStr)
		return fmt.Sprintf("(\"q\" + %s)[%s %% (len(%s) + 1)]", s, g.nonNeg(), s)
	case 13:
		if m, ok := g.pick(gMap); ok {
			return fmt.Sprintf("%s[%q]", m, g.one("a", "b", "c"))
		}
		return g.intLeaf()
	case 14:
		return fmt.Sprintf("%s(%s, %s)", g.one("min", "max"), g.expr(gInt), g.expr(gInt))
	default:
		return fmt.Sprintf("%s(%s)", g.one("twice", "abs"), g.expr(gInt))
	}
}

// nonNeg is an int leaf that is never negative: a remainder of a fresh
// leaf by a positive bound, made non-negative.
func (g *progGen) nonNeg() string {
	return fmt.Sprintf("abs(%s %% 1000)", g.intLeaf())
}

// index is a guarded index into array a: never out of range, and built
// from leaves only, so it cannot fail.
func (g *progGen) index(a string) string {
	return fmt.Sprintf("(%s %% len(%s) + len(%s)) %% len(%s)", g.intLeaf(), a, a, a)
}

func (g *progGen) floatLeaf() string {
	if v, ok := g.pick(gFloat); ok && g.r.Intn(2) == 0 {
		return v
	}
	return g.one("0.0", "0.5", "2.25", "1e300", "1e-7", "3.0", "123456789.125", "9007199254740993.0")
}

func (g *progGen) floatExpr() string {
	if g.deep() {
		return g.floatLeaf()
	}
	switch g.r.Intn(11) {
	case 0, 1, 2:
		return g.floatLeaf()
	case 3:
		return fmt.Sprintf("(%s + %s)", g.expr(gFloat), g.expr(genKind(g.r.Intn(2))))
	case 4:
		return fmt.Sprintf("(%s - %s)", g.expr(genKind(g.r.Intn(2))), g.expr(gFloat))
	case 5:
		return fmt.Sprintf("(%s * %s)", g.expr(gFloat), g.expr(genKind(g.r.Intn(2))))
	case 6:
		return fmt.Sprintf("(%s / %s)", g.expr(gFloat), g.one("3.5", "0.25", "1e300", "(-2.0)"))
	case 7:
		f := g.floatLeaf()
		return fmt.Sprintf("(%s / (%s * %s + 1.0))", g.expr(gFloat), f, f)
	case 8:
		return fmt.Sprintf("-(%s)", g.expr(gFloat))
	case 9:
		return fmt.Sprintf("float(%s)", g.expr(gInt))
	default:
		return fmt.Sprintf("abs(%s)", g.expr(gFloat))
	}
}

func (g *progGen) strLeaf() string {
	if v, ok := g.pick(gStr); ok && g.r.Intn(2) == 0 {
		return v
	}
	return g.one(`""`, `"a"`, `"b.c"`, `"1.2.3"`, `"héllo"`, `"x y"`, `"12"`)
}

func (g *progGen) strExpr() string {
	if g.deep() {
		return g.strLeaf()
	}
	switch g.r.Intn(10) {
	case 0, 1, 2:
		return g.strLeaf()
	case 3:
		return fmt.Sprintf("(%s + %s)", g.expr(gStr), g.expr(gStr))
	case 4:
		return fmt.Sprintf("str(%s)", g.expr(genKind(g.r.Intn(int(nKinds)))))
	case 5:
		return fmt.Sprintf("sprintf(\"%%d:%%s:%%f:%%v\", %s, %s, %s, %s)",
			g.expr(gInt), g.expr(gStr), g.expr(gFloat), g.expr(genKind(g.r.Intn(int(nKinds)))))
	case 6:
		return fmt.Sprintf("split(%s, %s)[0]", g.expr(gStr), g.one(`"."`, `" "`, `"l"`))
	case 7:
		if m, ok := g.pick(gMap); ok {
			return fmt.Sprintf("keys(%s)[0]", m)
		}
		return g.strLeaf()
	case 8:
		s := g.expr(gStr)
		return fmt.Sprintf("substr(%s, 0, len(%s) / 2)", s, s)
	default:
		return fmt.Sprintf("str(%s)", g.expr(gFloat))
	}
}

// chain is a + chain of three to six operands of kind k, which the
// compiler turns into ADDC and ADDN when an operand is a string
// literal (pairwise BIN + otherwise). A float chain mixes in ints. Some
// operands have side effects: a call that stores a global (tally), one
// that reports (note), an index that may be out of range. One chain in
// sixteen has an operand + rejects, at any position, so the first
// ill-typed pair falls at every position of a chain, after the
// operands before it ran and before those after it run.
func (g *progGen) chain(k genKind) string {
	g.depth++
	defer func() { g.depth-- }()
	ops := make([]string, 3+g.r.Intn(4))
	bad := -1
	if g.r.Intn(16) == 0 {
		bad = g.r.Intn(len(ops))
	}
	for i := range ops {
		kind := k
		if k == gFloat && g.r.Intn(2) == 0 {
			kind = gInt
		}
		switch {
		case i == bad:
			ops[i] = g.illTyped(k)
		case k != gArr && !g.deep() && g.r.Intn(8) == 0:
			ops[i] = g.chain(kind)
		case g.r.Intn(6) == 0:
			ops[i] = fmt.Sprintf("tally(%s)", g.expr(kind))
		case g.report && g.r.Intn(6) == 0:
			ops[i] = fmt.Sprintf("note(%s)", g.expr(kind))
		case kind == gStr && g.r.Intn(16) == 0:
			ops[i] = fmt.Sprintf("split(%s, \".\")[%d]", g.expr(gStr), g.r.Intn(2))
		case kind == gInt && len(g.vars[gArr]) > 0 && g.r.Intn(16) == 0:
			a, _ := g.pick(gArr)
			ops[i] = fmt.Sprintf("%s[%d]", a, g.r.Intn(2))
		default:
			ops[i] = g.expr(kind)
		}
	}
	return "(" + strings.Join(ops, " + ") + ")"
}

// illTyped is an operand that makes a + chain of kind k fail: a report,
// whose result is nil, or a value of a kind + does not combine with k.
// Half the time a chain of numbers or arrays fails on a string
// literal, so it compiles to ADDC and ADDN and fails in them.
func (g *progGen) illTyped(k genKind) string {
	if g.report && g.r.Intn(3) == 0 {
		return fmt.Sprintf("report(%s)", g.expr(gStr))
	}
	if k != gStr && g.r.Intn(2) == 0 {
		return `"1.3"`
	}
	switch k {
	case gStr:
		return g.expr([]genKind{gInt, gFloat, gArr, gMap}[g.r.Intn(4)])
	case gArr:
		return g.expr([]genKind{gInt, gStr, gMap}[g.r.Intn(3)])
	}
	return g.expr([]genKind{gStr, gArr, gMap}[g.r.Intn(3)])
}

func (g *progGen) arrExpr() string {
	if a, ok := g.pick(gArr); ok && (g.deep() || g.r.Intn(2) == 0) {
		return a
	}
	if g.r.Intn(4) == 0 {
		return fmt.Sprintf("append([%s], %s)", g.expr(gInt), g.expr(gInt))
	}
	n := 1 + g.r.Intn(3)
	elems := make([]string, n)
	for i := range elems {
		elems[i] = g.expr(gInt)
	}
	return "[" + strings.Join(elems, ", ") + "]"
}

func (g *progGen) mapExpr() string {
	if m, ok := g.pick(gMap); ok && (g.deep() || g.r.Intn(2) == 0) {
		return m
	}
	return fmt.Sprintf(`{"a": %s, "b": %s, "c": %s}`, g.expr(gInt), g.expr(gInt), g.expr(gInt))
}

func (g *progGen) boolExpr() string {
	cmp := g.one("<", "<=", ">", ">=", "==", "!=")
	var e string
	switch g.r.Intn(9) {
	case 0, 1, 2:
		e = fmt.Sprintf("(%s %s %s)", g.expr(gInt), cmp, g.expr(gInt))
	case 3:
		e = fmt.Sprintf("(%s %s %s)", g.expr(gFloat), cmp, g.expr(genKind(g.r.Intn(2))))
	case 4:
		e = fmt.Sprintf("(%s %s %s)", g.expr(gStr), cmp, g.expr(gStr))
	case 5:
		k := gArr + genKind(g.r.Intn(2))
		e = fmt.Sprintf("(%s %s %s)", g.expr(k), g.one("==", "!="), g.expr(k))
	case 6:
		e = fmt.Sprintf("contains(%s, %s)", g.expr(gStr), g.expr(gStr))
	case 7:
		e = fmt.Sprintf("contains(%s, %s)", g.expr(gArr), g.expr(gInt))
	default:
		e = fmt.Sprintf("(%s %s %s)", g.expr(gInt), cmp, g.expr(gFloat))
	}
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s && %s)", e, g.boolExprShallow())
	case 1:
		return fmt.Sprintf("(%s || %s)", e, g.boolExprShallow())
	case 2:
		return "!" + e
	default:
		return e
	}
}

func (g *progGen) boolExprShallow() string {
	return fmt.Sprintf("(%s %s %s)", g.intLeaf(), g.one("<", ">", "=="), g.intLeaf())
}

func (g *progGen) declare(k genKind, indent string) {
	name := fmt.Sprintf("v%d", g.names)
	g.names++
	if k == gStr {
		fmt.Fprintf(&g.b, "%svar %s = clip(%s);\n", indent, name, g.expr(k))
	} else {
		fmt.Fprintf(&g.b, "%svar %s = %s;\n", indent, name, g.expr(k))
	}
	g.vars[k] = append(g.vars[k], name)
	g.wr[k] = append(g.wr[k], name)
}

func (g *progGen) stmt(indent int) {
	pad := strings.Repeat("\t", indent)
	if g.mib && g.r.Intn(4) == 0 {
		g.mibStmt(pad)
		return
	}
	switch g.r.Intn(18) {
	case 0, 1, 2, 3:
		g.declare(genKind(g.r.Intn(int(nKinds))), pad)
	case 4, 5:
		k := genKind(g.r.Intn(int(nKinds)))
		if len(g.wr[k]) == 0 {
			g.declare(k, pad)
			return
		}
		v := g.wr[k][g.r.Intn(len(g.wr[k]))]
		switch {
		case k == gStr:
			// Strings are clipped on every store, so no program can
			// double one into the gigabytes.
			fmt.Fprintf(&g.b, "%s%s = clip(%s + %s);\n", pad, v, v, g.expr(k))
		case k <= gFloat && g.r.Intn(2) == 0:
			fmt.Fprintf(&g.b, "%s%s %s %s;\n", pad, v, g.one("+=", "-="), g.expr(k))
		default:
			fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, v, g.expr(k))
		}
	case 6, 7:
		fmt.Fprintf(&g.b, "%sif (%s) {\n", pad, g.boolExpr())
		g.block(indent+1, 2)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.b, "%s} else {\n", pad)
			g.block(indent+1, 2)
		}
		fmt.Fprintf(&g.b, "%s}\n", pad)
	case 8:
		if indent > 3 {
			fmt.Fprintf(&g.b, "%sacc += 1;\n", pad)
			return
		}
		name := fmt.Sprintf("i%d", g.names)
		g.names++
		n := 1 + g.r.Intn(5)
		fmt.Fprintf(&g.b, "%sfor (var %s = 0; %s < %d; %s += 1) {\n", pad, name, name, n, name)
		g.vars[gInt] = append(g.vars[gInt], name)
		g.block(indent+1, 2)
		g.vars[gInt] = g.vars[gInt][:len(g.vars[gInt])-1]
		fmt.Fprintf(&g.b, "%s}\n", pad)
	case 9:
		// Indexed store: target and index cannot fail (see progGen).
		if a, ok := g.pick(gArr); ok {
			fmt.Fprintf(&g.b, "%s%s[%s] = %s;\n", pad, a, g.index(a), g.expr(gInt))
		} else if m, ok := g.pick(gMap); ok {
			fmt.Fprintf(&g.b, "%s%s[%q] = %s;\n", pad, m, g.one("a", "b", "d"), g.expr(gInt))
		} else {
			g.declare(gArr, pad)
		}
	case 10:
		// append mutates in place: every alias sees it.
		if a, ok := g.pick(gArr); ok {
			if g.r.Intn(2) == 0 {
				fmt.Fprintf(&g.b, "%sappend(%s, %s);\n", pad, a, g.expr(gInt))
			} else {
				fmt.Fprintf(&g.b, "%sacc += bump(%s, %s);\n", pad, a, g.expr(gInt))
			}
		} else {
			g.declare(gArr, pad)
		}
	case 11:
		// Deliberately fallible, in one statement of every 32: the
		// engines must fail alike.
		switch g.r.Intn(6) {
		case 0:
			fmt.Fprintf(&g.b, "%sacc += int(%s);\n", pad, g.expr(gStr))
		case 1:
			if a, ok := g.pick(gArr); ok {
				fmt.Fprintf(&g.b, "%sacc += %s[%s];\n", pad, a, g.intLeaf())
				return
			}
			fmt.Fprintf(&g.b, "%sacc += 1;\n", pad)
		case 2:
			f := g.floatLeaf()
			fmt.Fprintf(&g.b, "%sfacc += %s / (%s - %s);\n", pad, g.expr(gFloat), f, g.floatLeaf())
		default:
			fmt.Fprintf(&g.b, "%sacc += %s;\n", pad, g.expr(gInt))
		}
	case 12:
		fmt.Fprintf(&g.b, "%sfacc += %s;\n", pad, g.expr(gFloat))
	case 13:
		fmt.Fprintf(&g.b, "%ssacc = clip(sacc + %s);\n", pad, g.expr(gStr))
	case 14, 15:
		switch g.r.Intn(4) {
		case 0:
			fmt.Fprintf(&g.b, "%ssacc = clip(%s);\n", pad, g.chain(gStr))
		case 1:
			fmt.Fprintf(&g.b, "%sacc += %s;\n", pad, g.chain(gInt))
		case 2:
			fmt.Fprintf(&g.b, "%sfacc += %s;\n", pad, g.chain(gFloat))
		default:
			// Arrays only ever meet under len, so no variable grows.
			fmt.Fprintf(&g.b, "%sacc += len(%s);\n", pad, g.chain(gArr))
		}
	default:
		fmt.Fprintf(&g.b, "%sacc += %s;\n", pad, g.expr(gInt))
	}
}

// mibStmt emits a MIB read or write whose OID argument takes one of the
// shapes effect recovery must follow: a literal, a literal plus a
// local, a literal plus a dynamic value, a short circuit under a
// literal head, or a local holding a literal.
func (g *progGen) mibStmt(pad string) {
	oid := g.one(`"1.3.6.1.2.1.1.3.0"`, `"1.3.6.1.2.1.2."`, `"1.3.6"`, `"1.3.6.1.4.1.9."`)
	switch g.r.Intn(5) {
	case 0:
	case 1:
		if v, ok := g.pick(gStr); ok {
			oid += " + " + v
		} else if v, ok := g.pick(gInt); ok {
			oid += " + " + v
		}
	case 2:
		oid = fmt.Sprintf("%s + str(%s)", oid, g.expr(gInt))
	case 3:
		oid = fmt.Sprintf("%s + (%s %s %s)", oid, g.boolExpr(), g.one("&&", "||"), g.one(`".1"`, `"2.0"`))
	default:
		name := fmt.Sprintf("oid%d", g.names)
		g.names++
		fmt.Fprintf(&g.b, "%svar %s = %s;\n", pad, name, oid)
		oid = name
	}
	switch g.r.Intn(4) {
	case 0:
		fmt.Fprintf(&g.b, "%ssacc = clip(sacc + str(mibGet(%s)));\n", pad, oid)
	case 1:
		fmt.Fprintf(&g.b, "%sacc += len(mibWalk(%s));\n", pad, oid)
	case 2:
		fmt.Fprintf(&g.b, "%smibSet(%s, %s);\n", pad, oid, g.expr(gInt))
	default:
		fmt.Fprintf(&g.b, "%ssacc = clip(sacc + str(snmpGet(\"host-a\", %s)));\n", pad, oid)
	}
}

func (g *progGen) block(indent, maxStmts int) {
	n := 1 + g.r.Intn(maxStmts)
	var saved [nKinds][2]int
	for k := range saved {
		saved[k] = [2]int{len(g.vars[k]), len(g.wr[k])}
	}
	for i := 0; i < n; i++ {
		if indent > 4 {
			fmt.Fprintf(&g.b, "%sacc += 1;\n", strings.Repeat("\t", indent))
			continue
		}
		g.stmt(indent)
	}
	for k := range saved {
		g.vars[k] = g.vars[k][:saved[k][0]]
		g.wr[k] = g.wr[k][:saved[k][1]]
	}
}

// generate returns one program whose main returns every accumulator and
// one variable of each composite kind, so a divergence anywhere shows
// in the result.
func (g *progGen) generate() string {
	g.b.Reset()
	g.names = 0
	for k := range g.vars {
		g.vars[k], g.wr[k] = nil, nil
	}
	g.b.WriteString("var acc = 0;\nvar facc = 0.0;\nvar sacc = \"\";\nvar hits = 0;\n")
	g.b.WriteString("func twice(x) { return x * 2; }\n")
	g.b.WriteString("func tally(x) { hits += 1; return x; }\n")
	if g.report {
		g.b.WriteString("func note(x) { report(str(hits) + \":\" + str(x)); return x; }\n")
	}
	g.b.WriteString("func clip(s) { if (len(s) > 40) { return substr(s, 0, 40); } return s; }\n")
	g.b.WriteString("func bump(a, x) { append(a, x); a[0] = a[0] + 1; return len(a); }\n")
	g.b.WriteString("func main() {\n")
	g.vars[gInt], g.wr[gInt] = []string{"acc"}, []string{"acc"}
	g.vars[gFloat], g.wr[gFloat] = []string{"facc"}, []string{"facc"}
	g.vars[gStr], g.wr[gStr] = []string{"sacc"}, []string{"sacc"}
	g.declare(gArr, "\t")
	g.declare(gMap, "\t")
	for i, n := 0, 2+g.r.Intn(10); i < n; i++ {
		g.stmt(1)
	}
	a, _ := g.pick(gArr)
	m, _ := g.pick(gMap)
	fmt.Fprintf(&g.b, "\treturn [acc, facc, sacc, hits, %s, %s];\n}\n", a, m)
	return g.b.String()
}

// GenProgram returns the generated program for seed. It calls report,
// and with mib also the MIB primitives (see mibStmt), which only the
// MIB-aware bindings of internal/dpl/analysis bind.
func GenProgram(seed int64, mib bool) string {
	g := &progGen{r: rand.New(rand.NewSource(seed)), mib: mib, report: true}
	return g.generate()
}

// engineBindings is the standard library plus a report that logs its
// argument to *events.
func engineBindings(events *[]string) *Bindings {
	b := Std()
	b.Register("report", 1, func(_ *Env, args []Value) (Value, error) {
		*events = append(*events, FormatValue(args[0]))
		return Value{}, nil
	})
	return b
}

// outcome is what one engine made of a program: the value's kind and
// text or the error text, then the reports in order.
type outcome struct {
	result string
	events []string
}

func (o outcome) String() string {
	return fmt.Sprintf("%s, reports %q", o.result, o.events)
}

// runEngines runs src's main on the reference interpreter, the VM, the
// VM over optimized code, and the VM over the code with every chain
// opcode turned back into the BIN + it stands for (see pairwise),
// returning each outcome. steps and pairSteps are the VM steps of the
// unoptimized code and of its pairwise form.
func runEngines(t testing.TB, src string) (interp, vm, opt, pair outcome, steps, pairSteps uint64) {
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse:\n%s\n%v", src, err)
	}
	var events []string
	b := engineBindings(&events)
	it, err := NewInterp(prog, b)
	if err != nil {
		t.Fatalf("generated program rejected:\n%s\n%v", src, err)
	}
	interp = outcome{render(it.Run(context.Background(), "main")), events}
	for i, out := range []*outcome{&vm, &opt, &pair} {
		events = nil
		c, err := Compile(prog, b)
		if err != nil {
			t.Fatalf("generated program does not compile:\n%s\n%v", src, err)
		}
		switch i {
		case 1:
			Optimize(c)
		case 2:
			pairwise(c)
		}
		m := NewVM(c, b, WithMaxSteps(2_000_000))
		*out = outcome{render(m.Run(context.Background(), "main")), events}
		switch i {
		case 0:
			steps = m.Steps()
		case 2:
			pairSteps = m.Steps()
		}
	}
	return interp, vm, opt, pair, steps, pairSteps
}

// pairwise rewrites c's chain opcodes to BIN +, the code the compiler
// emitted for a chain before it had them: the same instructions at the
// same positions, each adding its pair at once.
func pairwise(c *Compiled) {
	for fn := -1; fn < len(c.Funcs); fn++ {
		_, code, _ := c.Block(fn)
		for i, in := range code {
			if in.Op == OpAddC || in.Op == OpAddN {
				code[i] = Instr{Op: OpBin, A: int32(TokPlus)}
			}
		}
	}
	c.invalidateVerify()
}

func render(x any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	v, err := FromGo(x)
	if err != nil {
		return "not a DPL value: " + err.Error()
	}
	return TypeName(v) + " " + FormatValue(v)
}

// checkEngines fails t unless all four engines agree on src, value or
// error text and reports alike, and a chain costs the steps its
// pairwise form costs; it returns the common result.
func checkEngines(t testing.TB, src string) string {
	t.Helper()
	interp, vm, opt, pair, steps, pairSteps := runEngines(t, src)
	same := func(o outcome) bool {
		return o.result == interp.result && slices.Equal(o.events, interp.events)
	}
	if !same(vm) || !same(opt) || !same(pair) || steps != pairSteps {
		t.Fatalf("engines disagree:\ninterp:   %s\nvm:       %s (%d steps)\nopt vm:   %s\npairwise: %s (%d steps)\n%s",
			interp, vm, steps, opt, pair, pairSteps, src)
	}
	return interp.result
}

// TestVMMatchesInterpreter is the package's core property test: for
// hundreds of random programs over every value kind, the bytecode VM,
// the VM over optimized code and the reference tree-walking interpreter
// must produce identical results (value or error text alike) and the
// same reports in the same order, and every + chain must cost the
// steps of its pairwise form.
func TestVMMatchesInterpreter(t *testing.T) {
	g := &progGen{r: rand.New(rand.NewSource(99)), report: true}
	failed := 0
	for i := 0; i < 600; i++ {
		if strings.HasPrefix(checkEngines(t, g.generate()), "error: ") {
			failed++
		}
	}
	// The generator is meant to exercise values, not error paths.
	if failed > 600/3 {
		t.Errorf("%d of 600 generated programs fail at run time", failed)
	}
}

// FuzzVMMatchesInterpreter explores the same property from generator
// seeds.
func FuzzVMMatchesInterpreter(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 99} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := &progGen{r: rand.New(rand.NewSource(seed)), report: true}
		checkEngines(t, g.generate())
	})
}

// TestInterpreterFeatureParity spot-checks the interpreter on the same
// feature matrix the VM tests use.
func TestInterpreterFeatureParity(t *testing.T) {
	srcs := []struct {
		src  string
		want any
	}{
		{`func main() { var a = [1,2]; a[0] = 5; return a[0] + a[1]; }`, int64(7)},
		{`func main() { var m = {"k": 2}; m["j"] = 3; return m["k"] * m["j"]; }`, int64(6)},
		{`func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } func main() { return fib(10); }`, int64(55)},
		{`var g = 5; func main() { g += 1; return g; }`, int64(6)},
		{`func main() { var s = 0; while (s < 10) { s += 3; } return s; }`, int64(12)},
		{`func main() { var s = 0; for (var i = 0; i < 5; i += 1) { if (i == 3) { continue; } s += i; } return s; }`, int64(7)},
		{`func main() { return str(len("abc")) + sprintf("%d", 2); }`, "32"},
		{`func main() { var x = 1; { var x = 2; } return x; }`, int64(1)},
	}
	b := Std()
	for _, c := range srcs {
		prog, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewInterp(prog, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := it.Run(context.Background(), "main")
		if err != nil {
			t.Fatalf("interp(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("interp(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestInterpreterErrors(t *testing.T) {
	b := Std()
	cases := []string{
		`func main() { return 1 / 0; }`,
		`func main() { var a = [1]; return a[9]; }`,
		`func main() { unbound(); }`,
	}
	for _, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewInterp(prog, b)
		if err != nil {
			continue // translation rejection is also acceptable
		}
		if _, err := it.Run(context.Background(), "main"); err == nil {
			t.Errorf("interp(%q) succeeded, want error", src)
		}
	}
}
