package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"mbd/internal/dpl"
)

// TestExampleAgentsLintClean asserts every shipped example agent passes
// the full analysis pipeline without a single diagnostic — warnings
// included. The examples are the reference DPL corpus; if the analyzer
// flags them, either the example or the analyzer is wrong.
func TestExampleAgentsLintClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "agents", "*.dpl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example agents found")
	}
	b := LintBindings()
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := dpl.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, rep, err := Translate(prog, b)
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			for _, d := range rep.Diags {
				t.Errorf("%s: %s", file, d)
			}
		})
	}
}
