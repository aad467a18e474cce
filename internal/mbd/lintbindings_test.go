package mbd

import (
	"slices"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
)

// TestLintBindingsMatchServer: the offline lint table names the hosts a
// server built with views binds, with the same arities in the same
// slots, so an artifact compiled offline against it verifies at a stock
// server instead of failing DPL017.
func TestLintBindingsMatchServer(t *testing.T) {
	lint := analysis.LintBindings()
	server := newServer(t, Config{EnableViews: true}).Process().Bindings()
	if got, want := lint.NamesByIndex(), server.NamesByIndex(); !slices.Equal(got, want) {
		t.Fatalf("lint slots %v\nserver slots %v", got, want)
	}
	for _, name := range server.NamesByIndex() {
		_, want, _ := server.Lookup(name)
		if _, got, _ := lint.Lookup(name); got != want {
			t.Errorf("%s: lint arity %d, server arity %d", name, got, want)
		}
	}
	const src = `func main() { sleep(1); trap(1, "x"); return viewQuery("v") + mibGet("1.3.6.1.2.1.1.3.0"); }`
	prog, err := dpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	obj, rep, err := analysis.Translate(prog, lint)
	if err != nil {
		t.Fatal(err)
	}
	cp := &dpl.CompiledProgram{Version: dpl.CompilerVersion, SourceHash: dpl.HashSource(src), Verdict: rep.Verdict(), Object: obj}
	if err := verify.Verify(cp, server).Err(); err != nil {
		t.Fatalf("an artifact compiled against the lint table fails at the server: %v", err)
	}
}
