package dpl_test

import (
	"os"
	"path/filepath"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// seedCorpus adds every example agent plus a few crafted programs as
// fuzz seeds.
func seedCorpus(f *testing.F) {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "agents", "*.dpl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, s := range []string{
		``,
		`func main() { return 1; }`,
		`var g = 1; func f(x) { while (x > 0) { x -= 1; } return g; }`,
		`func f() { var a = [1, 2]; var m = {"k": a}; return m["k"][0]; }`,
		`func f() { return f(); }`,
		`func main() { for (var i = 0; i < 10; i += 1) { if (i % 2) { continue; } break; } }`,
		`func r(oid) { return mibGet("1.3." + oid); }`,
		"func main() { /* comment */ return \"str\\n\"; }",
	} {
		f.Add(s)
	}
}

// FuzzParse asserts the parser never panics and that accepted programs
// re-parse from their own positions (i.e. the AST is well-formed enough
// for the checker to walk).
func FuzzParse(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := dpl.Parse(src)
		if err != nil || prog == nil {
			return
		}
		// A parsed program must survive Check without panicking,
		// whatever its verdict.
		_ = dpl.Check(prog, dpl.Std())
	})
}

// FuzzAnalyze asserts the full static-analysis pipeline never panics on
// any checkable program, and that its diagnostics carry valid codes.
func FuzzAnalyze(f *testing.F) {
	seedCorpus(f)
	bindings := analysis.LintBindings()
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := dpl.Parse(src)
		if err != nil {
			return
		}
		_, rep, err := analysis.Translate(prog, bindings)
		if err != nil {
			return
		}
		for _, d := range rep.Diags {
			if len(d.Code) != 6 || d.Code[:3] != "DPL" {
				t.Fatalf("malformed diagnostic code %q", d.Code)
			}
			if d.Sev != dpl.SevWarning && d.Sev != dpl.SevError {
				t.Fatalf("malformed severity %v", d.Sev)
			}
		}
	})
}
