package main

// Reach mode (vet-mbd -reach [root]): the linker is the judge of what
// the product runs. It builds every root without inlining — each main
// package under cmd/, examples/ and bench/ (bench is its own module),
// plus the test binaries of the harness packages — lists the text
// symbols of each with go tool nm, and reports every function declared
// in a non-test file of a product package (internal/ minus the harness
// packages) that no root links and that the allowlist does not name.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
)

// harnessPkgs are the internal/ packages (with their subpackages) that
// exist for tests and experiments. Their test binaries are roots; their
// own functions are not checked.
var harnessPkgs = []string{"experiments", "netsim", "faultinject", "health", "intrusion"}

// allowFile holds the allowlist, relative to the repository root.
const allowFile = "cmd/vet-mbd/reach.allow"

// funcDecl is one function declared in a product package.
type funcDecl struct {
	sym   string // linker symbol, e.g. mbd/internal/rds.(*Client).Dial
	file  string // path relative to the repository root, slash-separated
	line  int
	lines int // source lines from the func keyword to the closing brace
}

// allowEntry is one allowlist line: a pattern and the reason for it.
type allowEntry struct {
	pattern string
	reason  string
}

// matches reports whether the entry names d. A pattern ending in ".go"
// names every function in that file (a path under internal/). Any other
// pattern is pkg.Name: it names the function pkg.Name, the constructor
// pkg.NewName, and every method of type Name; pkg.Type.Method names one
// method.
func (e allowEntry) matches(d funcDecl) bool {
	if strings.HasSuffix(e.pattern, ".go") {
		return d.file == "internal/"+e.pattern
	}
	pkg, name := shortName(d.sym)
	want := strings.SplitN(e.pattern, ".", 3)
	if len(want) < 2 || want[0] != pkg {
		return false
	}
	recv, fn, isMethod := strings.Cut(name, ".")
	if !isMethod {
		fn, recv = recv, ""
	}
	recv = strings.TrimSuffix(strings.TrimPrefix(recv, "(*"), ")")
	if len(want) == 3 {
		return recv == want[1] && fn == want[2]
	}
	return recv == want[1] || (recv == "" && (fn == want[1] || fn == "New"+want[1]))
}

// shortName splits a symbol into its last package element and the rest:
// mbd/internal/rds.(*Client).Dial -> "rds", "(*Client).Dial".
func shortName(sym string) (pkg, name string) {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return "", sym
	}
	return sym[slash+1 : slash+1+dot], sym[slash+2+dot:]
}

// parseAllow reads the allowlist: one "pattern  reason" per line, blank
// lines and #-comments skipped. Every entry must give a reason.
func parseAllow(data []byte) ([]allowEntry, error) {
	var out []allowEntry
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pattern, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: entry %q gives no reason", allowFile, n, pattern)
		}
		out = append(out, allowEntry{pattern: pattern, reason: reason})
	}
	return out, sc.Err()
}

// declaredFuncs lists the functions declared in the non-test Go files of
// the product packages under root/internal, with their linker symbols.
// init functions and empty-bodied parameterless methods (interface
// markers such as stmtNode, which no call ever reaches) are left out.
func declaredFuncs(root, module string) ([]funcDecl, error) {
	fset := token.NewFileSet()
	var out []funcDecl
	internal := filepath.Join(root, "internal")
	err := filepath.WalkDir(internal, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == "testdata" || isHarness(rel) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + path.Dir(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || isMarker(fn) {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			out = append(out, funcDecl{
				sym:   pkg + "." + symName(fn),
				file:  rel,
				line:  start.Line,
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return out, err
}

// isHarness reports whether a slash path relative to the repository
// root lies in a harness package.
func isHarness(rel string) bool {
	for _, h := range harnessPkgs {
		if rel == "internal/"+h || strings.HasPrefix(rel, "internal/"+h+"/") {
			return true
		}
	}
	return false
}

// isMarker reports whether fn is an empty method with no parameters and
// no results: an interface marker that exists only for the type checker.
func isMarker(fn *ast.FuncDecl) bool {
	return fn.Recv != nil && len(fn.Body.List) == 0 &&
		fn.Type.Params.NumFields() == 0 && fn.Type.Results.NumFields() == 0
}

// symName is the linker's name for fn within its package: Name, T.Name
// or (*T).Name. Type parameters are dropped, as symbolKey drops the
// instantiation from a linked symbol.
func symName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}

// symbolKey removes every bracketed instantiation from a linked symbol,
// so fanBundle[go.shape.int] and (*T[go.shape.string]).M match the
// declarations fanBundle and (*T).M.
func symbolKey(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// linkedSymbols parses go tool nm output and adds the keys of its text
// symbols to into. A name may contain spaces (a generic shape type), so
// everything after the type letter is the name.
func linkedSymbols(nm []byte, into map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		_, name, _ := strings.Cut(strings.TrimSpace(sc.Text()), " "+f[1]+" ")
		into[symbolKey(name)] = true
	}
}

// unreached returns the declarations no root links, split into those the
// allowlist names and those it does not, plus the allowlist entries that
// name nothing unlinked (stale entries).
func unreached(decls []funcDecl, linked map[string]bool, allow []allowEntry) (allowed, bad []funcDecl, stale []allowEntry) {
	used := make([]bool, len(allow))
	for _, d := range decls {
		if linked[d.sym] {
			continue
		}
		ok := false
		for i, e := range allow {
			if e.matches(d) {
				ok, used[i] = true, true
			}
		}
		if ok {
			allowed = append(allowed, d)
		} else {
			bad = append(bad, d)
		}
	}
	for i, e := range allow {
		if !used[i] {
			stale = append(stale, e)
		}
	}
	return allowed, bad, stale
}

// buildRoots builds every root into a fresh directory under tmp and
// returns the binaries' paths.
func buildRoots(root, tmp string) ([]string, error) {
	mains, err := goOut(root, "list", "-f", "{{if eq .Name \"main\"}}{{.ImportPath}}{{end}}", "./cmd/...", "./examples/...")
	if err != nil {
		return nil, err
	}
	harness := []string{"test", "-c", "-gcflags=all=-l", "-o", filepath.Join(tmp, "harness") + "/"}
	for _, h := range harnessPkgs {
		if _, err := os.Stat(filepath.Join(root, "internal", h)); err == nil {
			harness = append(harness, "./internal/"+h+"/...")
		}
	}
	steps := [][]string{
		append([]string{"build", "-gcflags=all=-l", "-o", filepath.Join(tmp, "main") + "/"}, strings.Fields(string(mains))...),
		harness,
		{"build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(tmp, "bench") + "/", "./..."},
	}
	for _, args := range steps {
		if _, err := goOut(root, args...); err != nil {
			return nil, err
		}
	}
	var bins []string
	err = filepath.WalkDir(tmp, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			bins = append(bins, p)
		}
		return err
	})
	return bins, err
}

// goOut runs the go command in dir and returns its standard output.
func goOut(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// reachResult is what the check found.
type reachResult struct {
	roots, decls, entries int
	allowed, bad          []funcDecl
	stale                 []allowEntry
}

// checkReach builds the roots of the repository at root and sorts its
// product functions into linked, allowlisted and unlisted.
func checkReach(root string) (*reachResult, error) {
	module, err := goOut(root, "list", "-m")
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, allowFile))
	if err != nil {
		return nil, err
	}
	allow, err := parseAllow(data)
	if err != nil {
		return nil, err
	}
	decls, err := declaredFuncs(root, strings.TrimSpace(string(module)))
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "vet-mbd-reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildRoots(root, tmp)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		nm, err := goOut(root, "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		linkedSymbols(nm, linked)
	}
	r := &reachResult{roots: len(bins), decls: len(decls), entries: len(allow)}
	r.allowed, r.bad, r.stale = unreached(decls, linked, allow)
	return r, nil
}

// reach runs the check on the repository at root. It prints each
// unlinked, unlisted function and each stale allowlist entry, then a
// summary, and returns whether the tree is clean.
func reach(root string) (bool, error) {
	r, err := checkReach(root)
	if err != nil {
		return false, err
	}
	for _, d := range r.bad {
		fmt.Printf("%s:%d: %s (%d lines) is linked by no binary\n", d.file, d.line, d.sym, d.lines)
	}
	for _, e := range r.stale {
		fmt.Printf("%s: entry %q names no unlinked function\n", allowFile, e.pattern)
	}
	fmt.Fprintf(os.Stderr, "vet-mbd -reach: %d roots; %d product functions, %d unlinked (%d lines): %d allowlisted by %d entries, %d not\n",
		r.roots, r.decls, len(r.allowed)+len(r.bad), funcLines(r.allowed)+funcLines(r.bad),
		len(r.allowed), r.entries, len(r.bad))
	return len(r.bad) == 0 && len(r.stale) == 0, nil
}

// funcLines totals the source lines of ds.
func funcLines(ds []funcDecl) int {
	n := 0
	for _, d := range ds {
		n += d.lines
	}
	return n
}
