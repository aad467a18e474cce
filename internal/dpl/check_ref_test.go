package dpl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// checkAgreement renders what Check and refCheck find in src, each as
// its sorted multiset of "line:col: message", or reports that src does
// not parse.
func checkAgreement(src string) (got, want []string, parsed bool) {
	prog, err := Parse(src)
	if err != nil {
		return nil, nil, false
	}
	b := refBindings()
	for _, d := range refCheck(prog, b) {
		want = append(want, fmt.Sprintf("%s: %s", d.Pos, d.Msg))
	}
	for _, d := range Check(prog, b) {
		if d.Sev != SevError || d.Code < CodeUndeclared || d.Code > CodeShadowsHost {
			got = append(got, fmt.Sprintf("%s: bad code or severity %s", d.Pos, d))
			continue
		}
		got = append(got, fmt.Sprintf("%s: %s", d.Pos, d.Msg))
	}
	sort.Strings(got)
	sort.Strings(want)
	return got, want, true
}

// refBindings is the standard library plus a fixed-arity and a
// variadic host function, so both arity rules have something to check.
func refBindings() *Bindings {
	b := Std()
	b.Register("two", 2, func(*Env, []Value) (Value, error) { return Value{}, nil })
	b.Register("many", -1, func(*Env, []Value) (Value, error) { return Value{}, nil })
	return b
}

// codeOf returns the code Check gives the rule a reference message
// states, for counting which rules a corpus exercises.
var codeOf = map[string]string{
	"undeclared variable":     CodeUndeclared,
	"not a program function":  CodeUnboundCall,
	"arguments, got":          CodeArity,
	"outside loop":            CodeLoopControl,
	"redefined":               CodeRedeclared,
	"redeclared":              CodeRedeclared,
	"repeated in":             CodeRedeclared,
	"shadows a host function": CodeShadowsHost,
}

// checkSources returns every example agent, every committed seed of
// FuzzParse, FuzzAnalyze and FuzzCheckMatchesReference, and the program
// each committed or built-in FuzzVMMatchesInterpreter seed generates.
func checkSources(tb testing.TB) map[string]string {
	tb.Helper()
	srcs := lexSeeds(tb)
	own, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCheckMatchesReference", "*"))
	if err != nil || len(own) < 7 {
		tb.Fatalf("want a committed seed per Translator rule, found %d: %v", len(own), err)
	}
	for _, file := range own {
		srcs[file] = corpusString(tb, file)
	}
	seeds := []int64{1, 2, 3, 99}
	vm, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzVMMatchesInterpreter", "*"))
	if err != nil || len(vm) == 0 {
		tb.Fatalf("no FuzzVMMatchesInterpreter corpus: %v", err)
	}
	for _, file := range vm {
		raw, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\nint64(")
		n, err := strconv.ParseInt(strings.TrimSuffix(lit, ")"), 10, 64)
		if !ok || err != nil {
			tb.Fatalf("%s: not a one-int64 corpus entry", file)
		}
		seeds = append(seeds, n)
	}
	for _, seed := range seeds {
		g := &progGen{r: rand.New(rand.NewSource(seed))}
		srcs[fmt.Sprintf("generated from seed %d", seed)] = g.generate()
	}
	return srcs
}

// mutate breaks a generated program in one to three places, each edit
// aimed at one Translator rule: drop a declaration, add an argument, put
// a break or continue where there may be no loop, declare a name twice,
// shadow a host function, call an unbound name, or delete a line.
func mutate(r *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	pick := func(match func(string) bool) int {
		var at []int
		for i, l := range lines {
			if match(l) {
				at = append(at, i)
			}
		}
		if len(at) == 0 {
			return -1
		}
		return at[r.Intn(len(at))]
	}
	isDecl := func(l string) bool {
		return strings.HasPrefix(strings.TrimSpace(l), "var ") && strings.HasPrefix(l, "\t")
	}
	insert := func(at int, l string) { lines = append(lines[:at], append([]string{l}, lines[at:]...)...) }
	body := func() int { return pick(func(l string) bool { return strings.HasPrefix(l, "\t") }) }
	for n := 1 + r.Intn(3); n > 0; n-- {
		switch r.Intn(10) {
		case 0: // drop a declaration, or keep its initializer as an assignment
			if i := pick(isDecl); i >= 0 {
				if r.Intn(2) == 0 {
					lines = append(lines[:i], lines[i+1:]...)
				} else {
					lines[i] = strings.Replace(lines[i], "var ", "", 1)
				}
			}
		case 1: // add an argument to a program or host call
			callee := []string{"twice(", "clip(", "bump(", "len(", "substr(", "contains("}[r.Intn(6)]
			if i := pick(func(l string) bool { return strings.Contains(l, callee) }); i >= 0 {
				lines[i] = strings.Replace(lines[i], callee, callee+"0, ", 1)
			}
		case 2: // a break or continue, inside a loop or not
			if i := body(); i >= 0 {
				insert(i, "\t"+[]string{"break;", "continue;"}[r.Intn(2)])
			}
		case 3: // declare a name twice in one scope
			if i := pick(isDecl); i >= 0 {
				insert(i, lines[i])
			}
		case 4: // redeclare a for loop's variable in its body
			if i := pick(func(l string) bool { return strings.Contains(l, "for (var ") }); i >= 0 {
				name := strings.Fields(lines[i][strings.Index(lines[i], "for (var ")+len("for (var "):])[0]
				insert(i+1, "\t\tvar "+name+" = 1;")
			}
		case 5: // a for loop whose post statement names a body variable
			if i := body(); i >= 0 {
				insert(i, "\tfor (var q = 0; q < 2; zz += 1) { var zz = q; acc += zz; }")
			}
		case 6: // redefine a function, a global or a parameter
			switch r.Intn(3) {
			case 0:
				lines = append(lines, "func twice(y) { return y; }")
			case 1:
				lines = append([]string{"var acc = 1;"}, lines...)
			default:
				if i := pick(func(l string) bool { return strings.HasPrefix(l, "func bump(a, x)") }); i >= 0 {
					lines[i] = strings.Replace(lines[i], "bump(a, x)", "bump(a, a)", 1)
				}
			}
		case 7: // shadow a host function
			lines = append(lines, []string{"func len(s) { return 0; }", "func two(a, b) { return a; }"}[r.Intn(2)])
		case 8: // call a name nothing binds
			if i := pick(func(l string) bool { return strings.Contains(l, "clip(") }); i >= 0 {
				lines[i] = strings.Replace(lines[i], "clip(", "clipx(", 1)
			}
		default: // delete a line: usually a parse error, sometimes a scope error
			if i := r.Intn(len(lines)); len(lines) > 1 {
				lines = append(lines[:i], lines[i+1:]...)
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestCheckMatchesReference holds Check, the one resolver, to the
// verdicts of the checker it replaced over every example agent, every
// committed fuzz seed, the programs the FuzzVMMatchesInterpreter seeds
// generate, and 20,000 generated programs, most broken on purpose.
func TestCheckMatchesReference(t *testing.T) {
	fired := map[string]int{}
	compare := func(name, src string) bool {
		got, want, parsed := checkAgreement(src)
		if !parsed {
			return false
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: Check and the reference disagree\nCheck:     %q\nreference: %q\n%s", name, got, want, src)
		}
		for _, w := range want {
			for frag, code := range codeOf {
				if strings.Contains(w, frag) {
					fired[code]++
				}
			}
		}
		return true
	}
	parsed := 0
	for name, src := range checkSources(t) {
		if compare(name, src) {
			parsed++
		}
	}
	if parsed < 30 {
		t.Errorf("only %d corpus sources parse; the comparison is not covering the corpus", parsed)
	}
	const programs = 20_000
	g := &progGen{r: rand.New(rand.NewSource(7))}
	mut := rand.New(rand.NewSource(8))
	for i := 0; i < programs; i++ {
		src := g.generate()
		if i%8 != 0 {
			src = mutate(mut, src)
		}
		compare(fmt.Sprintf("generated program %d", i), src)
	}
	for _, code := range []string{CodeUndeclared, CodeUnboundCall, CodeArity, CodeLoopControl, CodeRedeclared, CodeShadowsHost} {
		if fired[code] < 100 {
			t.Errorf("%s fired %d times; the mutations are not exercising it", code, fired[code])
		}
	}
}

// FuzzCheckMatchesReference: for any source that parses, Check and the
// checker it replaced accept and reject alike and report the same
// multiset of (line, column, message).
func FuzzCheckMatchesReference(f *testing.F) {
	for _, src := range checkSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if got, want, _ := checkAgreement(src); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("Check and the reference disagree\nCheck:     %q\nreference: %q", got, want)
		}
	})
}

// refCheck is Check as it stood before it became the one name resolver:
// a scope chain of maps, each rule an uncoded message. It is kept, with
// only its names changed and its error record reduced to a position and
// a message, as the oracle for FuzzCheckMatchesReference.

// refDiag is one refCheck finding.
type refDiag struct {
	Pos Pos
	Msg string
}

type refChecker struct {
	prog     *Program
	bindings *Bindings
	funcs    map[string]*FuncDecl
	globals  map[string]bool
	errs     []refDiag
}

func refCheck(prog *Program, bindings *Bindings) []refDiag {
	c := &refChecker{
		prog:     prog,
		bindings: bindings,
		funcs:    make(map[string]*FuncDecl),
		globals:  make(map[string]bool),
	}
	for _, f := range prog.Funcs {
		if prev, dup := c.funcs[f.Name]; dup {
			c.errorf(f.Position(), "function %q redefined (first at %s)", f.Name, prev.Position())
			continue
		}
		if _, _, isHost := bindings.Lookup(f.Name); isHost {
			c.errorf(f.Position(), "function %q shadows a host function", f.Name)
		}
		c.funcs[f.Name] = f
	}
	for _, g := range prog.Globals {
		if c.globals[g.Name] {
			c.errorf(g.Position(), "global %q redeclared", g.Name)
		}
		if g.Init != nil {
			// Global initializers run before any function; they may
			// reference earlier globals only.
			c.checkExpr(g.Init, &refScope{c: c})
		}
		c.globals[g.Name] = true
	}
	for _, f := range prog.Funcs {
		c.checkFunc(f)
	}
	return c.errs
}

func (c *refChecker) errorf(pos Pos, format string, args ...any) {
	c.errs = append(c.errs, refDiag{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// refScope is a lexical scope chain for local variables.
type refScope struct {
	c      *refChecker
	parent *refScope
	names  map[string]bool
	inLoop bool
}

func (s *refScope) child(loop bool) *refScope {
	return &refScope{c: s.c, parent: s, names: make(map[string]bool), inLoop: loop || s.inLoop}
}

func (s *refScope) declare(pos Pos, name string) {
	if s.names == nil {
		s.names = make(map[string]bool)
	}
	if s.names[name] {
		s.c.errorf(pos, "variable %q redeclared in this scope", name)
	}
	s.names[name] = true
}

func (s *refScope) resolve(name string) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.names[name] {
			return true
		}
	}
	return s.c.globals[name]
}

func (c *refChecker) checkFunc(f *FuncDecl) {
	top := &refScope{c: c, names: make(map[string]bool)}
	seen := map[string]bool{}
	for _, p := range f.Params {
		if seen[p] {
			c.errorf(f.Position(), "parameter %q repeated in %q", p, f.Name)
		}
		seen[p] = true
		top.names[p] = true
	}
	c.checkBlock(f.Body, top.child(false))
}

func (c *refChecker) checkBlock(b *Block, s *refScope) {
	for _, st := range b.Stmts {
		c.checkStmt(st, s)
	}
}

func (c *refChecker) checkStmt(st Stmt, s *refScope) {
	switch n := st.(type) {
	case *VarDecl:
		if n.Init != nil {
			c.checkExpr(n.Init, s)
		}
		s.declare(n.Position(), n.Name)
	case *Block:
		c.checkBlock(n, s.child(false))
	case *AssignStmt:
		switch t := n.Target.(type) {
		case *Ident:
			if !s.resolve(t.Name) {
				c.errorf(t.Position(), "assignment to undeclared variable %q", t.Name)
			}
		case *IndexExpr:
			c.checkExpr(t, s)
		}
		c.checkExpr(n.Value, s)
	case *IfStmt:
		c.checkExpr(n.Cond, s)
		c.checkBlock(n.Then, s.child(false))
		if n.Else != nil {
			c.checkStmt(n.Else, s.child(false))
		}
	case *WhileStmt:
		c.checkExpr(n.Cond, s)
		c.checkBlock(n.Body, s.child(true))
	case *ForStmt:
		fs := s.child(true)
		if n.Init != nil {
			c.checkStmt(n.Init, fs)
		}
		if n.Cond != nil {
			c.checkExpr(n.Cond, fs)
		}
		if n.Post != nil {
			c.checkStmt(n.Post, fs)
		}
		c.checkBlock(n.Body, fs)
	case *BreakStmt:
		if !s.inLoop {
			c.errorf(n.Position(), "break outside loop")
		}
	case *ContinueStmt:
		if !s.inLoop {
			c.errorf(n.Position(), "continue outside loop")
		}
	case *ReturnStmt:
		if n.Value != nil {
			c.checkExpr(n.Value, s)
		}
	case *ExprStmt:
		c.checkExpr(n.X, s)
	}
}

func (c *refChecker) checkExpr(e Expr, s *refScope) {
	switch n := e.(type) {
	case *Ident:
		if !s.resolve(n.Name) {
			c.errorf(n.Position(), "undeclared variable %q", n.Name)
		}
	case *UnaryExpr:
		c.checkExpr(n.X, s)
	case *BinaryExpr:
		c.checkExpr(n.L, s)
		c.checkExpr(n.R, s)
	case *IndexExpr:
		c.checkExpr(n.X, s)
		c.checkExpr(n.I, s)
	case *ArrayLit:
		for _, el := range n.Elems {
			c.checkExpr(el, s)
		}
	case *MapLit:
		for i := range n.Keys {
			c.checkExpr(n.Keys[i], s)
			c.checkExpr(n.Vals[i], s)
		}
	case *CallExpr:
		for _, a := range n.Args {
			c.checkExpr(a, s)
		}
		if f, ok := c.funcs[n.Name]; ok {
			if len(n.Args) != len(f.Params) {
				c.errorf(n.Position(), "%q expects %d arguments, got %d", n.Name, len(f.Params), len(n.Args))
			}
			return
		}
		if _, arity, ok := c.bindings.Lookup(n.Name); ok {
			if arity >= 0 && len(n.Args) != arity {
				c.errorf(n.Position(), "host function %q expects %d arguments, got %d", n.Name, arity, len(n.Args))
			}
			return
		}
		// The paper's core safety rule: unknown bindings are rejected
		// at translation time, never deferred to runtime.
		c.errorf(n.Position(), "call to %q: not a program function and not in the allowed host function set", n.Name)
	}
}
