package dpl_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// corpusSources gathers every DPL source committed to the repository:
// the example agents and the on-disk fuzz seed corpora.
func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	agents, err := filepath.Glob(filepath.Join("..", "..", "examples", "agents", "*.dpl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range agents {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[file] = string(data)
	}
	for _, dir := range []string{
		filepath.Join("testdata", "fuzz", "FuzzParse"),
		filepath.Join("testdata", "fuzz", "FuzzAnalyze"),
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			// Go fuzz corpus format: a version line, then one
			// string(<go-quoted>) line per argument.
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
					continue
				}
				s, err := strconv.Unquote(line[len("string(") : len(line)-1])
				if err != nil {
					continue
				}
				srcs[filepath.Join(dir, e.Name())] = s
			}
		}
	}
	if len(srcs) == 0 {
		t.Fatal("no corpus sources found")
	}
	return srcs
}

// TestOptimizerCrosscheckCorpus compiles every committed DPL source
// twice, optimizes one copy, and requires identical observable behavior
// from both, for every entry point. Programs the front end rejects are
// skipped; programs that exhaust the step quota on either side are
// compared on the quota error alone (instruction counts legitimately
// differ after optimization).
func TestOptimizerCrosscheckCorpus(t *testing.T) {
	bindings := analysis.LintBindings()
	checked := 0
	for name, src := range corpusSources(t) {
		prog, err := dpl.Parse(src)
		if err != nil {
			continue
		}
		if errs := dpl.Check(prog, bindings); len(errs) > 0 {
			continue
		}
		raw, err := dpl.Compile(prog, bindings)
		if err != nil {
			continue
		}
		opt, err := dpl.Compile(prog, bindings)
		if err != nil {
			t.Fatalf("%s: second compile diverged: %v", name, err)
		}
		dpl.Optimize(opt)
		if faults := opt.VerifyStructure(); len(faults) > 0 {
			t.Errorf("%s: optimizer broke structure: %v", name, faults[0])
			continue
		}
		for entry := range raw.FuncIdx {
			const quota = 100000
			ctx := context.Background()
			rawVal, rawErr := dpl.NewVM(raw, bindings, dpl.WithMaxSteps(quota)).Run(ctx, entry)
			optVal, optErr := dpl.NewVM(opt, bindings, dpl.WithMaxSteps(quota)).Run(ctx, entry)
			if errors.Is(rawErr, dpl.ErrStepQuota) || errors.Is(optErr, dpl.ErrStepQuota) {
				// The optimized copy must never be slower in steps.
				if errors.Is(optErr, dpl.ErrStepQuota) && rawErr == nil {
					t.Errorf("%s/%s: optimized copy hit the quota, raw did not", name, entry)
				}
				continue
			}
			if (rawErr == nil) != (optErr == nil) {
				t.Errorf("%s/%s: error divergence: raw=%v opt=%v", name, entry, rawErr, optErr)
				continue
			}
			if rawErr == nil && dpl.FormatValue(rawVal) != dpl.FormatValue(optVal) {
				t.Errorf("%s/%s: value divergence: raw=%s opt=%s", name, entry,
					dpl.FormatValue(rawVal), dpl.FormatValue(optVal))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("corpus crosscheck compared no entry points")
	}
	t.Logf("crosschecked %d entry points", checked)
}

// TestCompileSizesCodeOnce holds Compile's two passes together: what
// the sizing pass counts is what the emitting pass writes, so every
// function's code (and the initializers') fills its share of the one
// array exactly, and Optimize then shrinks the code where it lies.
func TestCompileSizesCodeOnce(t *testing.T) {
	bindings := analysis.LintBindings()
	compiled := 0
	for name, src := range corpusSources(t) {
		prog, err := dpl.Parse(src)
		if err != nil {
			continue
		}
		c, err := dpl.Compile(prog, bindings)
		if err != nil {
			continue
		}
		compiled++
		blocks := map[string][]dpl.Instr{"<init>": c.InitCode}
		for _, fn := range c.Funcs {
			blocks[fn.Name] = fn.Code
		}
		for fn, code := range blocks {
			if len(code) == 0 || cap(code) != len(code) {
				t.Errorf("%s/%s: %d instructions in room for %d: the sizing pass miscounted", name, fn, len(code), cap(code))
			}
		}
		first := map[string]*dpl.Instr{}
		for fn, code := range blocks {
			first[fn] = &code[0]
		}
		dpl.Optimize(c)
		blocks["<init>"] = c.InitCode
		for _, fn := range c.Funcs {
			blocks[fn.Name] = fn.Code
		}
		for fn, code := range blocks {
			if len(code) > 0 && &code[0] != first[fn] {
				t.Errorf("%s/%s: Optimize moved the code instead of compacting it in place", name, fn)
			}
		}
	}
	if compiled < 10 {
		t.Fatalf("only %d corpus sources compile", compiled)
	}
}
