package verify_test

import (
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
)

// buildArtifact runs the real source pipeline (parse, check, analyze,
// compile, optionally optimize) and packages the result the way the
// elastic process ships it.
func buildArtifact(t *testing.T, src string, b *dpl.Bindings, optimize bool) *dpl.CompiledProgram {
	t.Helper()
	prog, err := dpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := dpl.Check(prog, b); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	obj, err := dpl.Compile(prog, b)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep := analysis.Analyze(prog, b)
	if dpl.HasErrors(rep.Diags) {
		t.Fatalf("analyze: %v", &dpl.Error{Diags: rep.Diags})
	}
	if optimize {
		dpl.Optimize(obj)
	}
	new(analysis.Scratch).RecoverEffects(rep, obj)
	return &dpl.CompiledProgram{
		Version:    dpl.CompilerVersion,
		SourceHash: dpl.HashSource(src),
		Verdict:    rep.Verdict(),
		Object:     obj,
	}
}

// honestSources exercises every recovery rule: constant OIDs, partial
// concatenation heads, dynamic OIDs (wildcard on both sides), writes,
// user-function indirection, loops (unbounded cost), recursion-free
// bounded programs.
var honestSources = []string{
	`func main() { return mibGet("1.3.6.1.2.1.1.3.0"); }`,
	`func main(i) { return mibGet("1.3.6.1.2." + i); }`,
	`func main(oid) { return mibGet(oid); }`,
	`func main(v) { mibSet("1.3.6.1.4.1.9", v); return snmpGet("host-a", "1.3.6.1.2.1"); }`,
	`func probe(oid) { return mibNext(oid); }
	 func main() { return probe("1.3.6.1.2.1.2"); }`,
	`var acc = 0;
	 func main(n) {
		for (var i = 0; i < n; i += 1) { acc += len(mibWalk("1.3.6.1.2.1.2.2")); }
		return acc;
	 }`,
	`func main() {
		var parts = ["1.3.6", "1.2.3"];
		var total = 0;
		total += len(parts);
		if (total > 1 && parts[0] != "") { return mibGet(parts[0] + ".1.2.0"); }
		return nil;
	 }`,
	// A short circuit inside the OID: the constant head below the
	// branch survives the join.
	`func main(x) { return mibGet("1.3.6" + (x && ".1")); }`,
	// + chains (ADDC/ADDN): the head folds across the chain, and a
	// constant prefix folds into one constant.
	`func main(i) { return mibGet("1.3.6.1" + ".2.1.2." + i + ".0") + mibGet("1.3.6.1.2.1." + i + "." + i); }`,
}

func TestVerifyAcceptsHonestArtifacts(t *testing.T) {
	b := analysis.LintBindings()
	srcs := append([]string{}, honestSources...)
	glob, _ := filepath.Glob(filepath.Join("..", "..", "..", "examples", "agents", "*.dpl"))
	for _, p := range glob {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(data))
	}
	if len(glob) == 0 {
		t.Log("no example agents found; inline sources only")
	}
	for i, src := range srcs {
		for _, optimize := range []bool{false, true} {
			cp := buildArtifact(t, src, b, optimize)
			res := verify.Verify(cp, b)
			if err := res.Err(); err != nil {
				t.Errorf("source %d (optimize=%v): honest artifact rejected:\n%v\n%s", i, optimize, err, dpl.Disassemble(cp.Object))
			}
		}
	}
}

// TestVerifySurvivesCodec: verification must give the same verdict on
// an artifact that went through the wire encoding.
func TestVerifySurvivesCodec(t *testing.T) {
	b := analysis.LintBindings()
	cp := buildArtifact(t, honestSources[3], b, true)
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := dpl.DecodeProgram(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(dec, b).Err(); err != nil {
		t.Fatalf("decoded honest artifact rejected: %v", err)
	}
}

func TestVerifyRecoveredEffects(t *testing.T) {
	b := analysis.LintBindings()
	cp := buildArtifact(t, `func main(v) { mibSet("1.3.6.1.4.1.9", v); return mibGet("1.3.6.1.2.1.1.3.0"); }`, b, true)
	res := verify.Verify(cp, b)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Recovered.ReadPrefixes(); len(got) != 1 || got[0] != "1.3.6.1.2.1.1.3.0" {
		t.Errorf("recovered reads = %v", got)
	}
	if got := res.Recovered.WritePrefixes(); len(got) != 1 || got[0] != "1.3.6.1.4.1.9" {
		t.Errorf("recovered writes = %v", got)
	}
	if hosts := res.Recovered.HostNames(); !slices.Contains(hosts, "mibSet") || !slices.Contains(hosts, "mibGet") {
		t.Errorf("recovered hosts = %v", res.Recovered.HostNames())
	}
}

// pack is dpl.PackIdxOp for indices known to fit.
func pack(idx int32, op dpl.TokenKind) int32 {
	packed, _ := dpl.PackIdxOp(idx, op)
	return packed
}

// hostIndex is the slot b binds name at, as a call operand.
func hostIndex(b *dpl.Bindings, name string) int32 {
	idx, _, _ := b.Lookup(name)
	return int32(idx)
}

// hasCode reports whether diags contains an error with the given code.
func hasCode(diags []dpl.Diagnostic, code string) bool {
	for _, d := range diags {
		if d.Code == code && d.Sev == dpl.SevError {
			return true
		}
	}
	return false
}

func TestVerifyRejectsTamperedArtifacts(t *testing.T) {
	b := analysis.LintBindings()
	cases := []struct {
		name   string
		src    string
		tamper func(cp *dpl.CompiledProgram)
		code   string
	}{
		{
			"version skew", honestSources[0],
			func(cp *dpl.CompiledProgram) { cp.Version++ },
			dpl.CodeVersionSkew,
		},
		{
			"bad opcode", honestSources[0],
			func(cp *dpl.CompiledProgram) { cp.Object.Funcs[0].Code[0].Op = 99 },
			dpl.CodeBadOpcode,
		},
		{
			"jump out of range", honestSources[0],
			func(cp *dpl.CompiledProgram) {
				fn := cp.Object.Funcs[0]
				fn.Code[len(fn.Code)-1] = dpl.Instr{Op: dpl.OpJump, A: 1 << 20}
			},
			dpl.CodeBadJump,
		},
		{
			"stack underflow", honestSources[0],
			func(cp *dpl.CompiledProgram) {
				fn := cp.Object.Funcs[0]
				fn.Code = append([]dpl.Instr{{Op: dpl.OpPop}}, fn.Code...)
			},
			dpl.CodeStackUnsafe,
		},
		{
			"const index out of range", honestSources[0],
			func(cp *dpl.CompiledProgram) { cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpConst, A: 1 << 16} },
			dpl.CodeBadOperand,
		},
		{
			"fused const index out of range", honestSources[0],
			func(cp *dpl.CompiledProgram) {
				cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpIncL, A: 0, B: 1 << 16}
			},
			dpl.CodeBadOperand,
		},
		{
			"fused packed operand out of range", honestSources[0],
			func(cp *dpl.CompiledProgram) {
				cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpLoadLConstBin, A: 0, B: pack(1<<16, dpl.TokPlus)}
			},
			dpl.CodeBadOperand,
		},
		{
			"fused non-binop operator", honestSources[0],
			func(cp *dpl.CompiledProgram) {
				cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpBinJumpFalse, A: 1, B: 0xff}
			},
			dpl.CodeBadOperand,
		},
		{
			"fused jump out of range", honestSources[0],
			func(cp *dpl.CompiledProgram) {
				fn := cp.Object.Funcs[0]
				fn.Code = append([]dpl.Instr{
					{Op: dpl.OpConst, A: 0},
					{Op: dpl.OpConst, A: 0},
					{Op: dpl.OpBinJumpFalse, A: 1 << 20, B: int32(dpl.TokPlus)},
				}, fn.Code...)
			},
			dpl.CodeBadJump,
		},
		{
			"undeclared host", honestSources[0],
			func(cp *dpl.CompiledProgram) { cp.Verdict.Hosts = nil },
			dpl.CodeEffectUndeclared,
		},
		{
			"undeclared read prefix", honestSources[0],
			func(cp *dpl.CompiledProgram) { cp.Verdict.Reads = []string{"1.3.6.1.4"} },
			dpl.CodeEffectUndeclared,
		},
		{
			"undeclared write", `func main(v) { mibSet("1.3.6.1.4.1.9", v); return nil; }`,
			func(cp *dpl.CompiledProgram) { cp.Verdict.Writes = nil },
			dpl.CodeEffectUndeclared,
		},
		{
			"wildcard smuggled as narrow prefix", `func main(oid) { return mibGet(oid); }`,
			func(cp *dpl.CompiledProgram) { cp.Verdict.Reads = []string{"1.3.6.1"} },
			dpl.CodeEffectUndeclared,
		},
		{
			"budget below cost", honestSources[0],
			func(cp *dpl.CompiledProgram) { cp.Verdict.StepBudget = cp.Verdict.CostSteps - 1 },
			dpl.CodeBudgetMismatch,
		},
		{
			"bounded claim with no budget", honestSources[0],
			func(cp *dpl.CompiledProgram) { cp.Verdict.StepBudget = 0 },
			dpl.CodeBudgetMismatch,
		},
		{
			"budget below provable worst case", honestSources[0],
			func(cp *dpl.CompiledProgram) {
				cp.Verdict.CostSteps = 1
				cp.Verdict.StepBudget = 2
			},
			dpl.CodeBudgetMismatch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := buildArtifact(t, tc.src, b, true)
			tc.tamper(cp)
			res := verify.Verify(cp, b)
			if !hasCode(res.Diags, tc.code) {
				t.Fatalf("want %s, got %v", tc.code, res.Diags)
			}
		})
	}
}

// TestVerifyRejectsBoundedClaimOnRecursion: the source analyzer always
// marks recursive programs unbounded; a verdict claiming otherwise is a
// lie the bytecode itself disproves.
func TestVerifyRejectsBoundedClaimOnRecursion(t *testing.T) {
	b := analysis.LintBindings()
	cp := buildArtifact(t, `func loop(n) { if (n <= 0) { return 0; } return loop(n - 1); }
		func main() { return loop(3); }`, b, true)
	if !cp.Verdict.CostUnbounded {
		t.Fatal("source analysis should mark recursion unbounded")
	}
	cp.Verdict.CostUnbounded = false
	cp.Verdict.CostSteps = 10
	cp.Verdict.StepBudget = 1 << 30
	res := verify.Verify(cp, b)
	if !hasCode(res.Diags, dpl.CodeBudgetMismatch) {
		t.Fatalf("bounded claim on recursive code accepted: %v", res.Diags)
	}
}

// TestVerifyToleratesMalformedDeadCode: the structural proof visits
// reachable code only, so an instruction after the last return may
// hold any operand. Every later pass must leave it alone instead of
// indexing with it: a bounded artifact, so the budget pass runs too.
func TestVerifyToleratesMalformedDeadCode(t *testing.T) {
	b := analysis.LintBindings()
	for _, dead := range []dpl.Instr{
		{Op: dpl.OpJump, A: 99999},
		{Op: dpl.OpJumpFalse, A: -7},
		{Op: dpl.OpConst, A: 99999},
		{Op: dpl.OpLoadL, A: 99999},
		{Op: dpl.OpCallHost, A: 99999, B: 1},
		{Op: dpl.OpCall, A: 99999},
		{Op: dpl.OpArray, A: 1 << 30},
		{Op: 200},
	} {
		cp := buildArtifact(t, honestSources[0], b, true)
		fn := cp.Object.Funcs[0]
		fn.Code = append(fn.Code, dead)
		if err := verify.Verify(cp, b).Err(); err != nil {
			t.Errorf("dead %v: honest artifact rejected: %v", dead, err)
		}
	}
}

// deadLoopTest returns code to append after code's last instruction:
// a return, then what looks like a loop test on local -1, which the
// structural proof never reaches and so never checks.
func deadLoopTest(code []dpl.Instr) []dpl.Instr {
	return []dpl.Instr{
		{Op: dpl.OpReturnNil},
		{Op: dpl.OpNil},
		{Op: dpl.OpLoadLConstBin, A: -1, B: pack(0, dpl.TokLt)},
		{Op: dpl.OpJumpFalse, A: int32(len(code) + 1)},
	}
}

// TestVerifyDeadLoopTestOnBadLocal: a loop test on an out-of-range
// local in dead code gets a verdict, not a panic, whichever form the
// test takes.
func TestVerifyDeadLoopTestOnBadLocal(t *testing.T) {
	b := analysis.LintBindings()
	for _, local := range []int32{-1, -1 << 20, 1 << 20} {
		for _, form := range [][]dpl.Instr{
			{{Op: dpl.OpNil}, {Op: dpl.OpLoadLConstBin, A: local, B: pack(0, dpl.TokLt)}, {Op: dpl.OpJumpFalse, A: 0}},
			{{Op: dpl.OpNil}, {Op: dpl.OpConst, A: 0}, {Op: dpl.OpLoadL, A: local}, {Op: dpl.OpBinJumpFalse, A: 0, B: int32(dpl.TokLt)}},
			{{Op: dpl.OpConstStoreL, A: 0, B: local}, {Op: dpl.OpLoadLConstBin, A: local, B: pack(0, dpl.TokLt)}, {Op: dpl.OpJumpFalse, A: 0}},
			{{Op: dpl.OpStoreL, A: local}, {Op: dpl.OpLoadLConstBin, A: local, B: pack(0, dpl.TokLt)}, {Op: dpl.OpJumpFalse, A: 0}},
		} {
			cp := buildArtifact(t, honestSources[0], b, true)
			fn := cp.Object.Funcs[0]
			fn.Code = append(append(fn.Code, dpl.Instr{Op: dpl.OpReturnNil}), form...)
			if err := verify.Verify(cp, b).Err(); err != nil {
				t.Errorf("local %d, %v: honest artifact with dead code rejected: %v", local, form, err)
			}
		}
	}
	cp := buildArtifact(t, honestSources[0], b, true)
	fn := cp.Object.Funcs[0]
	fn.Code = append(fn.Code, deadLoopTest(fn.Code)...)
	if err := verify.Verify(cp, b).Err(); err != nil {
		t.Errorf("honest artifact with dead code rejected: %v", err)
	}
}

// TestVerifyHostTableSkew: an artifact built against one binding layout
// must not be admitted by a node whose table disagrees.
func TestVerifyHostTableSkew(t *testing.T) {
	b := analysis.LintBindings()
	cp := buildArtifact(t, honestSources[0], b, true)

	missing := dpl.Std() // no mibGet at all
	if res := verify.Verify(cp, missing); !hasCode(res.Diags, dpl.CodeHostTableSkew) {
		t.Fatalf("missing host accepted: %v", res.Diags)
	}

	// Same names, different slot order for a host the code calls.
	shuffled := dpl.NewBindings()
	stub := func(*dpl.Env, []dpl.Value) (dpl.Value, error) { return dpl.Value{}, nil }
	names := cp.Object.HostNames
	for i := len(names) - 1; i >= 0; i-- {
		shuffled.Register(names[i], -1, stub)
	}
	if len(names) > 1 {
		if res := verify.Verify(cp, shuffled); !hasCode(res.Diags, dpl.CodeHostTableSkew) {
			t.Fatalf("shuffled host table accepted: %v", res.Diags)
		}
	}

	// Right slot, wrong arity.
	wrongArity := dpl.NewBindings()
	for _, n := range names {
		wrongArity.Register(n, 7, stub)
	}
	if res := verify.Verify(cp, wrongArity); !hasCode(res.Diags, dpl.CodeHostTableSkew) {
		t.Fatalf("wrong arity accepted: %v", res.Diags)
	}
}

// TestVerifierRejectionImpliesVMRefusal: anything the verifier rejects
// structurally (DPL010–DPL013) must also be refused by the VM itself.
func TestVerifierRejectionImpliesVMRefusal(t *testing.T) {
	b := analysis.LintBindings()
	structural := map[string]bool{
		dpl.CodeBadOpcode: true, dpl.CodeBadJump: true,
		dpl.CodeStackUnsafe: true, dpl.CodeBadOperand: true,
	}
	tampers := []func(cp *dpl.CompiledProgram){
		func(cp *dpl.CompiledProgram) { cp.Object.Funcs[0].Code[0].Op = 200 },
		func(cp *dpl.CompiledProgram) { cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpJump, A: -3} },
		func(cp *dpl.CompiledProgram) {
			cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpBin, A: int32(dpl.TokPlus)}
		},
		func(cp *dpl.CompiledProgram) { cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpLoadL, A: 1 << 10} },
		// Invalid fused bytecode must be refused by the VM too: a bad
		// packed constant index, a fused local out of frame, an
		// operator byte that is not a binop, a fused backward jump into
		// nowhere.
		func(cp *dpl.CompiledProgram) {
			cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpLoadLConstBin, A: 0, B: pack(1<<16, dpl.TokPlus)}
		},
		func(cp *dpl.CompiledProgram) {
			cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpLoadLLoadLBin, A: 1 << 10, B: pack(0, dpl.TokPlus)}
		},
		func(cp *dpl.CompiledProgram) {
			cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpIncL, A: 0, B: 1 << 16}
		},
		func(cp *dpl.CompiledProgram) {
			cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpBinJumpFalse, A: 1 << 20, B: 0xff}
		},
		func(cp *dpl.CompiledProgram) {
			cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpConstStoreL, A: 1 << 16, B: 0}
		},
	}
	for i, tamper := range tampers {
		cp := buildArtifact(t, honestSources[0], b, false)
		tamper(cp)
		res := verify.Verify(cp, b)
		found := false
		for _, d := range res.Diags {
			if structural[d.Code] {
				found = true
			}
		}
		if !found {
			t.Fatalf("tamper %d: no structural diagnostic: %v", i, res.Diags)
		}
		if _, err := dpl.NewVM(cp.Object, b, dpl.WithMaxSteps(10000)).Run(context.Background(), "main"); err == nil {
			t.Fatalf("tamper %d: VM ran a program the verifier rejected", i)
		}
	}
}

// TestVerifyCompilerVersionWindow pins the version-skew contract: receivers accept the window
// [MinCompilerVersion, CompilerVersion] rather than one generation, a
// previous-generation artifact still loads, verifies and runs, and an
// artifact that stamps an old generation while using new opcodes is a
// forgery the verifier refuses.
func TestVerifyCompilerVersionWindow(t *testing.T) {
	b := analysis.LintBindings()

	// An unoptimized compile of a source without + chains emits only
	// generation-1 opcodes, which is exactly what a MinCompilerVersion
	// node would have shipped.
	old := buildArtifact(t, honestSources[0], b, false)
	old.Version = dpl.MinCompilerVersion
	for _, fn := range old.Object.Funcs {
		for _, in := range fn.Code {
			if dpl.OpcodeVersion(in.Op) > dpl.MinCompilerVersion {
				t.Fatalf("plain compile emitted generation-%d opcode %s", dpl.OpcodeVersion(in.Op), in.Op)
			}
		}
	}
	blob, err := old.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := dpl.DecodeProgram(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != dpl.MinCompilerVersion {
		t.Fatalf("codec lost the version stamp: %d", dec.Version)
	}
	if err := verify.Verify(dec, b).Err(); err != nil {
		t.Fatalf("previous-generation artifact rejected: %v", err)
	}
	quiet := quietBindings(dec)
	if err := verify.Verify(dec, quiet).Err(); err != nil {
		t.Fatalf("previous-generation artifact rejected under quiet bindings: %v", err)
	}
	if _, err := dpl.NewVM(dec.Object, quiet, dpl.WithMaxSteps(10000)).Run(context.Background(), "main"); err != nil {
		t.Fatalf("previous-generation artifact failed to run: %v", err)
	}

	// Below the window: too old to admit.
	ancient := buildArtifact(t, honestSources[0], b, false)
	ancient.Version = dpl.MinCompilerVersion - 1
	if res := verify.Verify(ancient, b); !hasCode(res.Diags, dpl.CodeVersionSkew) {
		t.Fatalf("below-window artifact accepted: %v", res.Diags)
	}

	// Forged stamp: generation-3 opcodes under a generation-2 Version.
	fused := buildArtifact(t, honestSources[5], b, true)
	hasFused := false
	for _, fn := range fused.Object.Funcs {
		for _, in := range fn.Code {
			if dpl.OpcodeVersion(in.Op) > dpl.MinCompilerVersion {
				hasFused = true
			}
		}
	}
	if !hasFused {
		t.Fatalf("optimizer produced no fused opcodes for the loop source:\n%s", dpl.Disassemble(fused.Object))
	}
	if err := verify.Verify(fused, b).Err(); err != nil {
		t.Fatalf("honest fused artifact rejected: %v", err)
	}
	fused.Version = dpl.MinCompilerVersion
	if res := verify.Verify(fused, b); !hasCode(res.Diags, dpl.CodeVersionSkew) {
		t.Fatalf("forged version stamp accepted: %v", res.Diags)
	}
}

// TestVerifyRefusesChainUnderGeneration3: an artifact holding the
// generation-4 chain opcodes while it claims generation 3 is a version
// skew, whatever else about it is honest.
func TestVerifyRefusesChainUnderGeneration3(t *testing.T) {
	b := analysis.LintBindings()
	cp := buildArtifact(t, honestSources[len(honestSources)-1], b, true)
	chain := false
	for _, fn := range cp.Object.Funcs {
		for _, in := range fn.Code {
			chain = chain || in.Op == dpl.OpAddC
		}
	}
	if !chain {
		t.Fatalf("no ADDC in the chain source's artifact:\n%s", dpl.Disassemble(cp.Object))
	}
	if err := verify.Verify(cp, b).Err(); err != nil {
		t.Fatalf("honest chain artifact rejected: %v", err)
	}
	if got := cp.Verdict.Reads; !slices.Equal(got, []string{"1.3.6.1.2.1"}) {
		t.Errorf("declared reads %v, want the chains' common head", got)
	}
	cp.Version = 3
	if res := verify.Verify(cp, b); !hasCode(res.Diags, dpl.CodeVersionSkew) {
		t.Fatalf("ADDC under a generation-3 stamp accepted: %v", res.Diags)
	}
}

// TestVerifyChainReadsWhatTheVMReads: chain code no compiler emits must
// not let effect recovery name one OID while the VM reads another.
// ADDC leaves two strings unjoined, so a host call after it reads the
// top one; ADDN joins every slot, not only the last pair. Declaring
// what the pairwise fold would read is refused, declaring what the VM
// reads is what recovery proves.
func TestVerifyChainReadsWhatTheVMReads(t *testing.T) {
	cases := []struct {
		name   string
		consts []string
		code   []dpl.Instr
		reads  string
	}{
		{"ADDC keeps the pair", []string{"1.3.6.1.2.1.", "1.3.6.1.4.1.9.9.1.0"},
			[]dpl.Instr{{Op: dpl.OpConst, A: 0}, {Op: dpl.OpConst, A: 1}, {Op: dpl.OpAddC}},
			"1.3.6.1.4.1.9.9.1.0"},
		{"ADDN joins every slot", []string{"1.3.6.1.4.1.9.", "1.3.6.1.2.1.", "1.0"},
			[]dpl.Instr{{Op: dpl.OpConst, A: 0}, {Op: dpl.OpConst, A: 1}, {Op: dpl.OpConst, A: 2}, {Op: dpl.OpAddN, A: 3}},
			"1.3.6.1.4.1.9.1.3.6.1.2.1.1.0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := analysis.LintBindings()
			var read []string
			b.Register("mibGet", 1, func(_ *dpl.Env, args []dpl.Value) (dpl.Value, error) {
				s, _ := args[0].AsString()
				read = append(read, s)
				return dpl.Value{}, nil
			})
			mibGet := hostIndex(b, "mibGet")
			cp := buildArtifact(t, `func main() { return mibGet("1.3.6.1.2.1.1.0"); }`, b, true)
			cp.Object.Consts = nil
			for _, s := range tc.consts {
				cp.Object.Consts = append(cp.Object.Consts, dpl.Str(s))
			}
			cp.Object.Funcs[0].Code = append(tc.code, dpl.Instr{Op: dpl.OpCallHost, A: mibGet, B: 1}, dpl.Instr{Op: dpl.OpReturn})
			cp.Verdict.CostSteps, cp.Verdict.StepBudget = 100, 100

			if _, err := dpl.NewVM(cp.Object, b, dpl.WithMaxSteps(100)).Run(context.Background(), "main"); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !slices.Equal(read, []string{tc.reads}) {
				t.Fatalf("VM read %q, want %q", read, tc.reads)
			}
			cp.Verdict.Reads = []string{"1.3.6.1.2.1"}
			if res := verify.Verify(cp, b); !hasCode(res.Diags, dpl.CodeEffectUndeclared) {
				t.Errorf("declared 1.3.6.1.2.1 while the VM reads %s: accepted %v", tc.reads, res.Diags)
			}
			cp.Verdict.Reads = []string{tc.reads}
			res := verify.Verify(cp, b)
			if err := res.Err(); err != nil {
				t.Fatalf("declared what the VM reads: %v", err)
			}
			if got := res.Recovered.Reads; len(got) != 1 || got[0].Name != tc.reads {
				t.Errorf("recovered reads %v, want [%s]", got, tc.reads)
			}
		})
	}
}

// TestChainRecoveryCoversVMReads: on random straight-line code over
// the chain opcodes (string, int and nil operands, a parameter of
// either kind, host calls in between), every OID the VM hands mibGet
// is covered by a read that effect recovery proves.
func TestChainRecoveryCoversVMReads(t *testing.T) {
	b := analysis.LintBindings()
	var read []string
	b.Register("mibGet", 1, func(_ *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		if s, ok := args[0].AsString(); ok {
			read = append(read, s)
		}
		return dpl.Value{}, nil
	})
	mibGet := hostIndex(b, "mibGet")
	consts := []dpl.Value{dpl.Str("1.3.6.1.2.1."), dpl.Str("1.3.6.1.4.1.9."), dpl.Str("1.0"), dpl.Str(""), dpl.Int(7)}
	rng := rand.New(rand.NewPCG(37, 4))
	ran := 0
	for range 3000 {
		var code []dpl.Instr
		for range 3 + rng.IntN(8) {
			switch rng.IntN(8) {
			case 0, 1, 2:
				code = append(code, dpl.Instr{Op: dpl.OpConst, A: rng.Int32N(int32(len(consts)))})
			case 3:
				code = append(code, dpl.Instr{Op: dpl.OpLoadL, A: 0})
			case 4:
				code = append(code, dpl.Instr{Op: dpl.OpAddC})
			case 5:
				code = append(code, dpl.Instr{Op: dpl.OpAddN, A: 2 + rng.Int32N(3)})
			case 6:
				code = append(code, dpl.Instr{Op: dpl.OpCallHost, A: mibGet, B: 1})
			default:
				code = append(code, dpl.Instr{Op: dpl.OpNil})
			}
		}
		code = append(code, dpl.Instr{Op: dpl.OpCallHost, A: mibGet, B: 1}, dpl.Instr{Op: dpl.OpReturn})
		cp := buildArtifact(t, `func main(x) { return mibGet(x); }`, b, false)
		cp.Object.Consts, cp.Object.Funcs[0].Code = consts, code
		cp.Verdict.Reads = []string{analysis.Wildcard}
		cp.Verdict.CostSteps, cp.Verdict.StepBudget = 100, 100
		res := verify.Verify(cp, b)
		if !res.OK() {
			continue // structurally unsound: the VM refuses it too
		}
		ran++
		for _, arg := range []any{"1.3.6.1.2.1.7.", int64(5)} {
			read = read[:0]
			dpl.NewVM(cp.Object, b, dpl.WithMaxSteps(100)).Run(context.Background(), "main", arg)
			for _, oid := range read {
				if !slices.ContainsFunc(res.Recovered.Reads, func(e analysis.Effect) bool { return analysis.OIDCovers(e.Name, oid) }) {
					t.Fatalf("VM read %s (arg %v), recovered %v:\n%s", oid, arg, res.Recovered.Reads, dpl.Disassemble(cp.Object))
				}
			}
		}
	}
	if ran < 300 {
		t.Fatalf("only %d of 3000 programs verified", ran)
	}
}

// loopArtifact is a bounded-looking artifact of n counted loops, one
// after another, then n loops nested in each other; every loop is
// `for (l = 0; l < 10; l += 1)` on a local of its own.
func loopArtifact(n int) *dpl.CompiledProgram {
	var zero, ten, one int32 = 0, 1, 2
	var code []dpl.Instr
	loop := func(l int32, body func()) {
		code = append(code, dpl.Instr{Op: dpl.OpConstStoreL, A: zero, B: l})
		head := int32(len(code))
		code = append(code, dpl.Instr{Op: dpl.OpLoadLConstBin, A: l, B: pack(ten, dpl.TokLt)}, dpl.Instr{Op: dpl.OpJumpFalse})
		body()
		code = append(code, dpl.Instr{Op: dpl.OpIncL, A: l, B: one}, dpl.Instr{Op: dpl.OpJump, A: head})
		code[head+1].A = int32(len(code))
	}
	for range n {
		loop(0, func() {})
	}
	var nested func(d int)
	nested = func(d int) {
		if d < n {
			loop(int32(d), func() { nested(d + 1) })
		}
	}
	nested(0)
	code = append(code, dpl.Instr{Op: dpl.OpReturnNil})
	return &dpl.CompiledProgram{
		Version: dpl.CompilerVersion,
		Verdict: dpl.Verdict{CostUnbounded: true},
		Object: &dpl.Compiled{
			Consts: []dpl.Value{dpl.Int(0), dpl.Int(10), dpl.Int(1)},
			Funcs:  []*dpl.CompiledFunc{{Name: "main", NumLocals: n, Code: code}},
		},
	}
}

// TestVerifyScalesWithLoops: the cost recovery is linear in the code,
// however many loops it holds and however deep they nest, so a large
// hostile artifact cannot tie up a receiver. 20,000 loops either way
// verify in milliseconds; work per loop over the whole code would take
// minutes.
func TestVerifyScalesWithLoops(t *testing.T) {
	cp := loopArtifact(20000)
	start := time.Now()
	res := verify.Verify(cp, dpl.NewBindings())
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Unbounded {
		t.Errorf("10^20000 trips priced bounded: %v", res.Cost)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("verifying %d instructions took %v", len(cp.Object.Funcs[0].Code), d)
	}
	small := loopArtifact(3)
	if res := verify.Verify(small, dpl.NewBindings()); res.Cost.Unbounded || res.Cost.Steps == 0 {
		t.Errorf("three counted loops priced %v", res.Cost)
	}
}
