package main

import (
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// syms renders the symbols of ds, sorted.
func syms(ds []funcDecl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.sym
	}
	sort.Strings(out)
	return out
}

// reachFixture is a small module laid out like this repository: a
// product package, a harness package with a test, a main under cmd/ and
// a bench module of its own.
var reachFixture = map[string]string{
	"go.mod": "module fix\n\ngo 1.24\n",
	"internal/p/p.go": `package p

// stmt is a marker interface; its empty methods are never called.
type stmt interface{ stmtNode() }

type ifStmt struct{}

func (*ifStmt) stmtNode() {}

type ring[T any] struct{ items []T }

func (r *ring[T]) push(v T) { r.items = append(r.items, v) }

// fanBundle and resize exist in the binary only as instantiations.
func fanBundle[T any](vs []T) int {
	r := &ring[T]{}
	for _, v := range vs {
		r.push(v)
	}
	return resize(r.items)
}

func resize[T any](items []T) int { return len(items) * 2 }

func Used() int { return fanBundle([]string{"a", "b"}) + fanBundle([]int{1}) }

func HarnessOnly() int { return 1 }

func BenchOnly() int { return 2 }

func Allowed() int { return 3 }

func Unused() int {
	return 4
}
`,
	"internal/experiments/e.go":      "package experiments\n",
	"internal/experiments/e_test.go": "package experiments\n\nimport (\n\t\"testing\"\n\n\t\"fix/internal/p\"\n)\n\nfunc TestE(t *testing.T) { _ = p.HarnessOnly() }\n",
	"internal/experiments/x.go":      "package experiments\n\nfunc Exempt() {}\n",
	"cmd/app/main.go":                "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { println(p.Used()) }\n",
	"examples/hello/main.go":         "package main\n\nfunc main() {}\n",
	"bench/go.mod":                   "module fix/bench\n\ngo 1.24\n\nrequire fix v0.0.0\n\nreplace fix => ../\n",
	"bench/main.go":                  "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { println(p.BenchOnly()) }\n",
	"cmd/vet-mbd/reach.allow":        "# fixture\np.Allowed  kept for the test\n",
}

// TestReachLinksRoots runs the whole check on the fixture: generic
// instantiations match their declarations by name, interface markers
// and harness packages are exempt, a function only a harness test or
// the bench links counts as linked, and the allowlist covers the rest
// but one.
func TestReachLinksRoots(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command")
	}
	r, err := checkReach(writeTree(t, reachFixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := syms(r.bad); len(got) != 1 || got[0] != "fix/internal/p.Unused" {
		t.Fatalf("unlisted unlinked = %v, want only p.Unused", got)
	}
	if got := syms(r.allowed); len(got) != 1 || got[0] != "fix/internal/p.Allowed" {
		t.Fatalf("allowlisted = %v, want only p.Allowed", got)
	}
	if len(r.stale) != 0 || r.decls != 8 || r.roots != 4 {
		t.Fatalf("stale %v, %d decls, %d roots; want none, 8, 4", r.stale, r.decls, r.roots)
	}
	if d := r.bad[0]; d.file != "internal/p/p.go" || d.lines != 3 {
		t.Fatalf("Unused at %s:%d spans %d lines, want internal/p/p.go and 3", d.file, d.line, d.lines)
	}
}

// TestLinkedSymbolsGeneric: nm lists a generic function or method only
// under its instantiations, whose shape types may hold spaces and
// brackets; each keys as the bare declaration.
func TestLinkedSymbolsGeneric(t *testing.T) {
	nm := `  4a1b20 T mbd/internal/rds.fanBundle[go.shape.struct { Name string; Hash [32]uint8 }]
  4a1c00 T mbd/internal/rds.resize[go.shape.int]
  4a1d00 t mbd/internal/rds.(*ring[go.shape.string]).push
  4a1e00 T mbd/internal/federation.encodeResult[go.shape.*uint8,go.shape.int]
  4a1f00 D mbd/internal/rds.dataSym
           U mbd/internal/rds.undefined
`
	linked := map[string]bool{}
	linkedSymbols([]byte(nm), linked)
	for _, want := range []string{
		"mbd/internal/rds.fanBundle",
		"mbd/internal/rds.resize",
		"mbd/internal/rds.(*ring).push",
		"mbd/internal/federation.encodeResult",
	} {
		if !linked[want] {
			t.Errorf("%s not linked; got %v", want, linked)
		}
	}
	if linked["mbd/internal/rds.dataSym"] || linked["mbd/internal/rds.undefined"] || len(linked) != 4 {
		t.Errorf("non-text symbols linked: %v", linked)
	}
}

// TestDeclaredFuncsExemptMarkers: empty parameterless methods (the AST's
// stmtNode/exprNode markers) and init are not checked; an empty method
// that takes or returns something is.
func TestDeclaredFuncsExemptMarkers(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/dpl/ast.go": `package dpl
type Stmt interface{ stmtNode() }
type Expr interface{ exprNode() }
type If struct{}
type Ident struct{}
func (*If) stmtNode()    {}
func (Ident) exprNode()  {}
func (*If) Pos() int     { return 0 }
func (*If) reset(n int)  {}
func init()              {}
`,
		"internal/dpl/ast_test.go":   "package dpl\nfunc helper() {}\n",
		"internal/health/health.go":  "package health\nfunc Probe() {}\n",
		"internal/dpl/testdata/x.go": "package x\nfunc Fixture() {}\n",
	})
	decls, err := declaredFuncs(root, "mbd")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(syms(decls), " ")
	if want := "mbd/internal/dpl.(*If).Pos mbd/internal/dpl.(*If).reset"; got != want {
		t.Fatalf("declared = %s, want %s", got, want)
	}
}

// TestAllowlist: entries name a file, a function with its constructor
// and methods, or one method; every entry needs a reason; an entry that
// names nothing unlinked is stale.
func TestAllowlist(t *testing.T) {
	allow, err := parseAllow([]byte(`# comment

dpl/asm.go                   assembler
elastic.VirtualClock         fake clock
rds.Client.DelegateCompiled  compiled path
vdl.Gone                     names nothing
`))
	if err != nil {
		t.Fatal(err)
	}
	decl := func(sym, file string) funcDecl { return funcDecl{sym: sym, file: file, lines: 1} }
	decls := []funcDecl{
		decl("mbd/internal/dpl.Assemble", "internal/dpl/asm.go"),
		decl("mbd/internal/dpl.(*assembler).operand", "internal/dpl/asm.go"),
		decl("mbd/internal/elastic.NewVirtualClock", "internal/elastic/clock.go"),
		decl("mbd/internal/elastic.(*VirtualClock).Advance", "internal/elastic/clock.go"),
		decl("mbd/internal/rds.(*Client).DelegateCompiled", "internal/rds/client.go"),
		decl("mbd/internal/rds.(*Client).Dial", "internal/rds/client.go"),
		decl("mbd/internal/rds.(*Client).Eval", "internal/rds/client.go"),
		decl("mbd/internal/elastic.(*WallClock).Now", "internal/elastic/clock.go"),
	}
	linked := map[string]bool{"mbd/internal/rds.(*Client).Dial": true}
	allowed, bad, stale := unreached(decls, linked, allow)
	if len(allowed) != 5 {
		t.Errorf("allowed = %v, want the five the entries name", syms(allowed))
	}
	if got := strings.Join(syms(bad), " "); got != "mbd/internal/elastic.(*WallClock).Now mbd/internal/rds.(*Client).Eval" {
		t.Errorf("bad = %s", got)
	}
	if len(stale) != 1 || stale[0].pattern != "vdl.Gone" {
		t.Errorf("stale = %v, want vdl.Gone", stale)
	}
	if _, err := parseAllow([]byte("dpl.Disassemble\n")); err == nil || !strings.Contains(err.Error(), "no reason") {
		t.Errorf("reasonless entry: err = %v", err)
	}
}

// TestRepoAllowlistParses keeps the committed allowlist well formed
// and short.
func TestRepoAllowlistParses(t *testing.T) {
	data, err := os.ReadFile("reach.allow")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllow(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) == 0 || len(allow) > 6 {
		t.Fatalf("reach.allow has %d entries, want 1 to 6", len(allow))
	}
}
