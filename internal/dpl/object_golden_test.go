package dpl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

const objectGolden = "testdata/object.golden"

// TestObjectCodePinned pins what the Translator ships for every DPL
// source committed to the repository and for 4,000 generated programs:
// per source, the sha256 of its encoded artifact (the optimized object
// code and the verdict recovered from it), and one sha256 over the
// generated programs' artifacts in seed order. A change to the
// compiler, the optimizer or the cost and effect recovery that moves a
// single byte fails it; such a change bumps CompilerVersion and
// rewrites the golden file with
//
//	DPL_WRITE_GOLDEN=1 go test ./internal/dpl -run TestObjectCodePinned
func TestObjectCodePinned(t *testing.T) {
	srcs := corpusSources(t)
	addFuzzCorpus(t, srcs, "FuzzCheckMatchesReference", "FuzzHonestArtifactVerifies", "FuzzVMMatchesInterpreter")
	for _, file := range []string{"analysis/testdata/diagnostics.dpl", "../mbd/testdata/agent_rpc.dpl", "../mbd/testdata/delegate_cold.dpl"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[file] = string(data)
	}
	bindings := analysis.LintBindings()
	var lines []string
	for name, src := range srcs {
		lines = append(lines, filepath.ToSlash(filepath.Clean(name))+" "+hex.EncodeToString(artifact(t, src, bindings)))
	}
	slices.Sort(lines)
	gen := sha256.New()
	for seed := range int64(4000) {
		gen.Write(artifact(t, dpl.GenProgram(seed, seed%2 == 1), bindings))
	}
	got := strings.Join(lines, "\n") + "\ngenerated/0-3999 " + hex.EncodeToString(gen.Sum(nil)) + "\n"
	if os.Getenv("DPL_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(objectGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(objectGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(g), len(w)) {
			if i >= len(g) || i >= len(w) || g[i] != w[i] {
				t.Errorf("object code changed: got %q, want %q", at(g, i), at(w, i))
			}
		}
	}
}

// artifact returns the sha256 of src's encoded artifact, or of the
// error that stopped its translation.
func artifact(t *testing.T, src string, bindings *dpl.Bindings) []byte {
	var obj *dpl.Compiled
	var rep *analysis.Report
	prog, err := dpl.Parse(src)
	if err == nil {
		obj, rep, err = analysis.Translate(prog, bindings)
	}
	if err != nil {
		sum := sha256.Sum256([]byte(err.Error()))
		return sum[:]
	}
	blob, err := (&dpl.CompiledProgram{Version: dpl.CompilerVersion, SourceHash: dpl.HashSource(src), Verdict: rep.Verdict(), Object: obj}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return sum[:]
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
