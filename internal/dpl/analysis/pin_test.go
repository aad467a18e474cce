package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mbd/internal/dpl"
)

var update = flag.Bool("update", false, "rewrite testdata/lint.golden from this tree's analyzer")

// TestLintOutputPinned holds what `mbdctl lint` prints (every
// diagnostic with its position, the effects, the cost and the budget)
// for the example agents and for testdata/diagnostics.dpl to the
// committed text. The golden file was written by the analyzer as it
// stood before the resolver's scopes became one slice, the graph left
// FuncInfo and the parser began pulling tokens.
func TestLintOutputPinned(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "agents", "*.dpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example agents: %v", err)
	}
	files = append(files, filepath.Join("testdata", "diagnostics.dpl"))
	b := LintBindings()
	var out strings.Builder
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := dpl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if errs := dpl.Check(prog, b); len(errs) > 0 {
			t.Fatalf("%s: %v", file, errs)
		}
		rep := Analyze(prog, b)
		name := filepath.Base(file)
		for _, d := range rep.Diags {
			fmt.Fprintf(&out, "%s:%s\n", name, d)
		}
		fmt.Fprintf(&out, "%s: effects: %s\n", name, rep.Effects.String())
		fmt.Fprintf(&out, "%s: cost: %s (budget %d)\n", name, rep.Cost.String(), rep.SuggestedBudget(0))
		for _, f := range rep.Funcs {
			fmt.Fprintf(&out, "%s: func %s at %s: %s; %s\n", name, f.Name, f.Pos, f.Effects.String(), f.Cost.String())
		}
	}
	golden := filepath.Join("testdata", "lint.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("lint output moved.\n--- got\n%s--- want\n%s", got, want)
	}
	for _, code := range []string{CodeUseBeforeInit, CodeUnreachable, CodeDeadStore, CodeGlobalNeverWritten,
		CodeBusyLoop, CodeDynamicOID, CodeRecursion} {
		if !strings.Contains(string(want), "["+code+"]") {
			t.Errorf("the golden file holds no %s: testdata/diagnostics.dpl no longer raises it", code)
		}
	}
}

// TestReportHoldsNoGraphOrAST guards what the program cache retains: a
// Report lives as long as its cache entry, so no field of it, or of a
// FuncInfo, may lead to a control-flow graph or to an AST node, either
// of which pins the whole parsed program.
func TestReportHoldsNoGraphOrAST(t *testing.T) {
	graph := reflect.TypeOf(Graph{})
	block := reflect.TypeOf(Block{})
	program := reflect.TypeOf(dpl.Program{})
	node := reflect.TypeOf((*dpl.Node)(nil)).Elem()
	isAST := func(ty reflect.Type) bool {
		return ty == program || ty.Kind() == reflect.Struct && reflect.PointerTo(ty).Implements(node)
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch {
		case ty == graph || ty == block:
			t.Errorf("%s reaches analysis.%s", path, ty.Name())
			return
		case isAST(ty):
			t.Errorf("%s reaches the AST node dpl.%s", path, ty.Name())
			return
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path)
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[value]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Interface:
			if ty.PkgPath() == program.PkgPath() {
				t.Errorf("%s is the dpl interface %s, which AST nodes implement", path, ty.Name())
			}
		}
	}
	walk(reflect.TypeOf(Report{}), "Report")
	walk(reflect.TypeOf(FuncInfo{}), "FuncInfo")
}
