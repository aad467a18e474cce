package dpl

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// opcodeSpec pins every opcode's table row as the structural verifier,
// the disassembler and the optimizer stated it before the table
// existed: mnemonic, generation, what A and B hold, pops>pushes, flow.
// Wire values are positions in this list.
var opcodeSpec = []string{
	"CONST g1 const,- 0>1 next",
	"NIL g1 -,- 0>1 next",
	"TRUE g1 -,- 0>1 next",
	"FALSE g1 -,- 0>1 next",
	"LOADG g1 global,- 0>1 next",
	"STOREG g1 global,- 1>0 next",
	"LOADL g1 local,- 0>1 next",
	"STOREL g1 local,- 1>0 next",
	"POP g1 -,- 1>0 next",
	"BIN g1 operator,- 2>1 next",
	"EQ g1 -,- 2>1 next",
	"NE g1 -,- 2>1 next",
	"NEG g1 -,- 1>1 next",
	"NOT g1 -,- 1>1 next",
	"JUMP g1 target,- 0>0 jump",
	"JF g1 target,- 1>0 branch",
	"JFK g1 target,- 1>1 branch",
	"JTK g1 target,- 1>1 branch",
	"CALL g1 func,count B>1 next",
	"CALLH g1 host,count B>1 next",
	"RET g1 -,- 1>0 end",
	"RETNIL g1 -,- 0>0 end",
	"INDEX g1 -,- 2>1 next",
	"SETIDX g1 -,- 3>0 next",
	"ARRAY g1 count,- A>1 next",
	"MAP g1 count,- 2A>1 next",
	"LLCB g3 local,const+op 0>1 next",
	"LLLB g3 local,local+op 0>1 next",
	"BJF g3 target,operator 2>0 branch",
	"KSTL g3 const,local 0>0 next",
	"INCL g3 local,const 0>0 next",
	"DECL g3 local,const 0>0 next",
	"ADDC g4 -,- 2>2 next",
	"ADDN g4 count,- A>1 next",
}

// spec renders a table row in opcodeSpec's notation.
func (r opInfo) spec() string {
	kinds := [...]string{"-", "const", "global", "local", "func", "host", "target", "count", "operator", "const+op", "local+op"}
	pops := map[int8]string{popsB: "B", popsA: "A", pops2A: "2A"}[r.pops]
	if pops == "" {
		pops = fmt.Sprint(r.pops)
	}
	flows := [...]string{"next", "jump", "branch", "end"}
	return fmt.Sprintf("%s g%d %s,%s %s>%d %s", r.name, r.gen, kinds[r.a], kinds[r.b], pops, r.pushes, flows[r.flow])
}

// TestOpcodeTable: the table has one row per opcode from OpConst to
// OpAddN, each row states what the hand-written sites it replaced
// stated, and the accessors read it.
func TestOpcodeTable(t *testing.T) {
	if len(opcodeSpec) != int(OpAddN)+1 {
		t.Fatalf("spec has %d rows for %d opcodes", len(opcodeSpec), OpAddN+1)
	}
	seen := map[string]bool{}
	for op := OpConst; op <= OpAddN; op++ {
		r := opTable[op]
		if got := r.spec(); got != opcodeSpec[op] {
			t.Errorf("opcode %d: row %q, want %q", op, got, opcodeSpec[op])
		}
		if seen[r.name] {
			t.Errorf("mnemonic %s is not unique", r.name)
		}
		seen[r.name] = true
		if op.String() != r.name || OpcodeVersion(op) != int(r.gen) {
			t.Errorf("opcode %d: String %q, OpcodeVersion %d disagree with the table", op, op, OpcodeVersion(op))
		}
	}
	for op := OpAddN + 1; op != 0; op++ {
		if opTable[op] != (opInfo{}) || OpcodeVersion(op) != 1 || op.String() != fmt.Sprintf("OP(%d)", op) {
			t.Errorf("byte %d outside the instruction set must have an empty row, read as generation 1, OP(n)", op)
		}
	}
}

// TestListingRoundTripsEveryOpcode: one listing holding every opcode,
// with an operand of every kind, survives Disassemble → Assemble →
// Disassemble.
func TestListingRoundTripsEveryOpcode(t *testing.T) {
	c := &Compiled{
		Consts:      []Value{Int(1), Str("x y"), Float(2.5)},
		GlobalNames: []string{"g"},
		HostNames:   []string{"len"},
	}
	operand := func(kind operand, ip int) int32 {
		switch kind {
		case opdConst:
			return 1
		case opdTarget:
			return int32(ip + 1)
		case opdCount:
			return 1
		case opdOperator:
			return int32(TokLe)
		case opdConstOp:
			packed, _ := PackIdxOp(2, TokPlus)
			return packed
		case opdLocalOp:
			packed, _ := PackIdxOp(1, TokStar)
			return packed
		}
		return 0 // global, local, func and host 0
	}
	var code []Instr
	for op := OpConst; op <= OpAddN; op++ {
		r := opTable[op]
		code = append(code, Instr{Op: op, A: operand(r.a, len(code)), B: operand(r.b, len(code))})
	}
	c.Funcs = []*CompiledFunc{{Name: "main", NumParams: 1, NumLocals: 2, Code: code}}
	d1 := Disassemble(c)
	for op := OpConst; op <= OpAddN; op++ {
		if r := opTable[op]; !strings.Contains(d1, r.name) {
			t.Errorf("listing lacks %s", r.name)
		}
	}
	c2, err := Assemble(d1)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, d1)
	}
	if d2 := Disassemble(c2); d2 != d1 {
		t.Fatalf("round trip unstable:\n--- first ---\n%s--- second ---\n%s", d1, d2)
	}
}

// TestOpcodeSwitchSites: per-opcode facts live in the table. A switch
// on an opcode is allowed only where an opcode's meaning, not its
// shape, is at stake: the VM's dispatch, the walker's value transfer
// and the optimizer's pattern matchers.
func TestOpcodeSwitchSites(t *testing.T) {
	allowed := map[string]bool{
		"vm.go (*VM).dispatch":              true,
		"walk.go (*Walker).transfer":        true,
		"optimize.go constOf":               true,
		"optimize.go foldCode":              true,
		"optimize.go fuseSuperinstructions": true,
		"optimize.go dropDeadStores":        true,
	}
	fset, files := parseSources(t)
	opcodes := map[string]bool{}
	for op := OpConst; op <= OpAddN; op++ {
		opcodes[opcodeConstName(t, files["compile.go"], op)] = true
	}
	found := map[string]bool{}
	for path, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := filepath.Base(path) + " " + funcName(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sw, ok := n.(*ast.SwitchStmt); ok && mentionsOpcode(sw, opcodes) {
					found[site] = true
					if !allowed[site] || filepath.Dir(path) != "." {
						t.Errorf("%s: switch on an opcode outside the allowed sites; read the opcode table instead", fset.Position(sw.Pos()))
					}
				}
				return true
			})
		}
	}
	if !found["vm.go (*VM).dispatch"] {
		t.Error("the guard did not find the VM's dispatch switch")
	}
}

// TestOneFlowGraph: control flow is worked out from the opcode stream in
// one place, the graph's build; every other pass reads the graph. A
// call of OpcodeFlow or Instr.target, or a read of an opcode's flow
// column, is allowed only where an instruction's own flow is at stake:
// the walker's step, compact's and foldCode's rewrites of a target,
// chainEnd's scan of one expression, the structural verifier's
// target-range fault and constant propagation's stop rule.
func TestOneFlowGraph(t *testing.T) {
	allowed := map[string]bool{
		"compile.go OpcodeFlow":                      true,
		"compile.go Instr.target":                    true,
		"graph.go (*Graph).build":                    true,
		"graph.go (*Graph).mark":                     true,
		"walk.go (*Walker).Walk":                     true,
		"optimize.go (*optimizer).compact":           true,
		"optimize.go foldCode":                       true,
		"optimize.go chainEnd":                       true,
		"optimize.go propagateConsts":                true,
		"verifycode.go (*structVerifier).checkBlock": true,
	}
	fset, files := parseSources(t)
	found := map[string]bool{}
	for path, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := filepath.Base(path) + " " + funcName(fn)
			ast.Inspect(fn, func(n ast.Node) bool {
				name := ""
				switch n := n.(type) {
				case *ast.Ident: // dpl.OpcodeFlow's too
					if n.Name == "OpcodeFlow" {
						name = n.Name
					}
				case *ast.SelectorExpr: // in.target, opTable[op].flow
					if n.Sel.Name == "target" || n.Sel.Name == "flow" {
						name = n.Sel.Name
					}
				}
				if name != "" {
					found[site] = true
					if !allowed[site] || filepath.Dir(path) != "." {
						t.Errorf("%s: %s outside the allowed sites; read the control-flow graph instead", fset.Position(n.Pos()), name)
					}
				}
				return true
			})
		}
	}
	if !found["graph.go (*Graph).build"] {
		t.Error("the guard did not find the graph's build")
	}
}

// parseSources parses the package's non-test Go files and its
// subpackages'.
func parseSources(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := goparser.ParseFile(fset, path, nil, 0)
		files[path] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// opcodeConstName returns the identifier compile.go declares op under.
func opcodeConstName(t *testing.T, f *ast.File, op Opcode) string {
	i := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if vs := gd.Specs[0].(*ast.ValueSpec); vs.Type == nil || fmt.Sprint(vs.Type) != "Opcode" {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if i == int(op) {
					return name.Name
				}
				i++
			}
		}
	}
	t.Fatalf("compile.go declares no opcode %d", op)
	return ""
}

func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		return fmt.Sprintf("(*%s).%s", star.X, fn.Name.Name)
	}
	return fmt.Sprintf("%s.%s", recv, fn.Name.Name)
}

// mentionsOpcode reports whether any case of sw names an opcode
// constant, bare or package-qualified.
func mentionsOpcode(sw *ast.SwitchStmt, opcodes map[string]bool) bool {
	hit := false
	for _, clause := range sw.Body.List {
		for _, e := range clause.(*ast.CaseClause).List {
			ast.Inspect(e, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					hit = hit || opcodes[x.Name]
				case *ast.SelectorExpr:
					hit = hit || opcodes[x.Sel.Name]
				}
				return !hit
			})
		}
	}
	return hit
}
