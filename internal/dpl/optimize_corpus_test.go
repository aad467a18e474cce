package dpl_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// corpusSources gathers every DPL source committed to the repository:
// the example agents and the on-disk fuzz seed corpora.
func corpusSources(t testing.TB) map[string]string {
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
	addFuzzCorpus(t, srcs, "FuzzParse", "FuzzAnalyze")
	if len(srcs) == 0 {
		t.Fatal("no corpus sources found")
	}
	return srcs
}

// addFuzzCorpus adds the string seeds of the named fuzz targets'
// committed corpora to srcs.
func addFuzzCorpus(t testing.TB, srcs map[string]string, targets ...string) {
	t.Helper()
	for _, target := range targets {
		dir := filepath.Join("testdata", "fuzz", target)
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
		for _, fn := range raw.Funcs {
			entry := fn.Name
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
			if rawErr == nil && dpl.Format(rawVal) != dpl.Format(optVal) {
				t.Errorf("%s/%s: value divergence: raw=%s opt=%s", name, entry,
					dpl.Format(rawVal), dpl.Format(optVal))
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
// array exactly. Optimize then leaves the optimized blocks, one after
// another, in one array of their total length, so a stored program
// keeps no instruction the optimizer dropped.
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
		dpl.Optimize(c)
		next := unsafe.Pointer(unsafe.SliceData(c.InitCode))
		for i, code := range append([][]dpl.Instr{c.InitCode}, funcCode(c)...) {
			if cap(code) != len(code) || len(code) > 0 && unsafe.Pointer(&code[0]) != next {
				t.Errorf("%s: optimized block %d is not the next %d instructions of one array", name, i, len(code))
			}
			next = unsafe.Add(next, uintptr(len(code))*unsafe.Sizeof(dpl.Instr{}))
		}
	}
	if compiled < 10 {
		t.Fatalf("only %d corpus sources compile", compiled)
	}
}

// funcCode returns each function's code, in order.
func funcCode(c *dpl.Compiled) [][]dpl.Instr {
	var out [][]dpl.Instr
	for _, fn := range c.Funcs {
		out = append(out, fn.Code)
	}
	return out
}
