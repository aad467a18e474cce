// Command vet-mbd is this repository's project-specific static checker,
// run by the CI lint job alongside go vet. It enforces two house rules
// that ordinary vet cannot:
//
//  1. Observability metric names passed to obs registration methods
//     (Counter, Gauge, Histogram, FuncCounter, FuncGauge,
//     LabeledCounter) must be lowercase snake_case
//     (^[a-z][a-z0-9_]*$) and each name must be registered at exactly
//     one call site — except that one name MAY appear at several sites
//     when every one of them is a LabeledCounter registration (the
//     per-label-value handles of one logical series, e.g.
//     federation_fanout_outcomes_total's accepted/rejected pair).
//
//  2. The interpreter hot paths — internal/dpl/vm.go and
//     internal/dpl/interp.go — must not call fmt.Sprintf. Per-step
//     formatting allocates on every executed instruction; errors there
//     use fmt.Errorf on exit paths or preformatted strings.
//
//  3. Functions whose doc comment carries an "mbd:hotloop" marker (the
//     VM dispatch loop) must not contain closure literals or syntactic
//     heap allocations — make/new/append calls and composite literals.
//     A closure would force every captured variable to the heap and
//     defeat the register-like locals of the dispatch loop; an
//     allocation per dispatched instruction destroys the steady-state
//     0 allocs/op property the benchmarks gate on. Intentional
//     amortized or program-driven allocations are exempted by an
//     "mbd:alloc-ok" comment on the same line.
//
// Usage: vet-mbd [dir ...] (default "."). It walks each directory,
// skipping testdata, vendor and hidden directories and _test.go files,
// and prints findings as path:line:col: message. Exit status: 0 clean,
// 1 findings, 2 usage or parse failure.
//
// Usage: vet-mbd -reach [root] (default "."). The reach mode (reach.go)
// fails on any function in a product package that no binary links and
// that reach.allow does not name, and on any reach.allow entry that
// names nothing unlinked. Same exit statuses.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metricMethods are the obs.Registry registration methods whose first
// argument is a metric name.
var metricMethods = map[string]bool{
	"Counter":        true,
	"Gauge":          true,
	"Histogram":      true,
	"FuncCounter":    true,
	"FuncGauge":      true,
	"LabeledCounter": true,
}

// metricName is the allowed shape of a metric name: Prometheus-style
// lowercase snake_case.
var metricName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// hotFiles are the interpreter files where fmt.Sprintf is banned
// (matched as a path suffix after slash normalization).
var hotFiles = []string{"internal/dpl/vm.go", "internal/dpl/interp.go"}

// finding is one rule violation at a source position.
type finding struct {
	pos token.Position
	msg string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.msg)
}

// regSite is one metric registration call site.
type regSite struct {
	pos     token.Position
	method  string
	labeled bool
}

// vet walks the given directories and returns every finding, sorted by
// position. It fails (error, not finding) only on I/O or parse trouble.
func vet(dirs []string) ([]finding, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || name == "vendor" || (strings.HasPrefix(name, ".") && path != dir) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var out []finding
	regs := map[string][]regSite{} // metric name -> registration sites
	for _, f := range files {
		hot := isHotFile(fset.Position(f.Pos()).Filename)
		out = append(out, checkHotLoops(fset, f)...)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if hot && sel.Sel.Name == "Sprintf" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" {
					out = append(out, finding{
						pos: fset.Position(call.Pos()),
						msg: "fmt.Sprintf in interpreter hot path (allocates per step; use fmt.Errorf on exit paths or preformat)",
					})
				}
			}
			if !metricMethods[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true // dynamic name (table-driven registration): out of scope
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			pos := fset.Position(lit.Pos())
			if !metricName.MatchString(name) {
				out = append(out, finding{
					pos: pos,
					msg: fmt.Sprintf("metric name %q is not lowercase snake_case (want %s)", name, metricName),
				})
			}
			regs[name] = append(regs[name], regSite{
				pos: pos, method: sel.Sel.Name,
				labeled: sel.Sel.Name == "LabeledCounter",
			})
			return true
		})
	}

	for name, sites := range regs {
		if len(sites) < 2 {
			continue
		}
		allLabeled := true
		for _, s := range sites {
			allLabeled = allLabeled && s.labeled
		}
		if allLabeled {
			continue // one logical labeled series, many handles: fine
		}
		for _, s := range sites[1:] {
			out = append(out, finding{
				pos: s.pos,
				msg: fmt.Sprintf("metric %q already registered at %s:%d (%s); duplicate names are only allowed when every site is a LabeledCounter",
					name, sites[0].pos.Filename, sites[0].pos.Line, sites[0].method),
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// allocBuiltins are the builtin calls that always heap-allocate (or, for
// append, may) when they appear in a dispatch loop.
var allocBuiltins = map[string]bool{"make": true, "new": true, "append": true}

// checkHotLoops enforces rule 3: no closure literals and no syntactic
// allocations inside functions whose doc comment carries mbd:hotloop,
// except on lines annotated mbd:alloc-ok.
func checkHotLoops(fset *token.FileSet, f *ast.File) []finding {
	allocOK := map[int]bool{} // source lines carrying an mbd:alloc-ok comment
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "mbd:alloc-ok") {
				allocOK[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	var out []finding
	flag := func(n ast.Node, fn *ast.FuncDecl, what string) {
		pos := fset.Position(n.Pos())
		if allocOK[pos.Line] {
			return
		}
		out = append(out, finding{
			pos: pos,
			msg: fmt.Sprintf("%s in mbd:hotloop function %s (annotate the line mbd:alloc-ok only if the allocation is amortized or program-driven)", what, fn.Name.Name),
		})
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil || fn.Body == nil || !hasHotLoopMarker(fn.Doc.Text()) {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				flag(x, fn, "closure literal (captures escape to the heap)")
				return false // interior allocations are the closure's problem
			case *ast.CompositeLit:
				flag(x, fn, "composite literal allocation")
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && allocBuiltins[id.Name] {
					flag(x, fn, fmt.Sprintf("%s call", id.Name))
				}
			}
			return true
		})
	}
	return out
}

// hasHotLoopMarker reports whether a doc comment opts the function into
// rule 3. The marker must start a line of the comment, so prose that
// merely mentions the marker name (this checker's own documentation)
// does not opt in.
func hasHotLoopMarker(doc string) bool {
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "mbd:hotloop") {
			return true
		}
	}
	return false
}

// isHotFile reports whether path is one of the Sprintf-banned
// interpreter files.
func isHotFile(path string) bool {
	p := filepath.ToSlash(path)
	for _, h := range hotFiles {
		if p == h || strings.HasSuffix(p, "/"+h) {
			return true
		}
	}
	return false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-reach" {
		root := "."
		if len(os.Args) > 2 {
			root = os.Args[2]
		}
		clean, err := reach(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vet-mbd:", err)
			os.Exit(2)
		}
		if !clean {
			os.Exit(1)
		}
		return
	}
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	findings, err := vet(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vet-mbd:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
