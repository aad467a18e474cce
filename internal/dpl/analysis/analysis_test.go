package analysis

import (
	"context"
	"slices"
	"strings"
	"testing"

	"mbd/internal/dpl"
)

// analyzeSrc runs src through the delegation pipeline (Translate)
// against the lint profile.
func analyzeSrc(t *testing.T, src string) *Report {
	t.Helper()
	prog, err := dpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, rep, err := Translate(prog, LintBindings())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return rep
}

// codes extracts the diagnostic codes of a report, in order.
func codes(r *Report) []string {
	out := make([]string, len(r.Diags))
	for i, d := range r.Diags {
		out[i] = d.Code
	}
	return out
}

func wantCode(t *testing.T, r *Report, code string) dpl.Diagnostic {
	t.Helper()
	for _, d := range r.Diags {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("no %s diagnostic; got %v", code, r.Diags)
	return dpl.Diagnostic{}
}

func wantNoCode(t *testing.T, r *Report, code string) {
	t.Helper()
	for _, d := range r.Diags {
		if d.Code == code {
			t.Fatalf("unexpected %s: %s", code, d)
		}
	}
}

func TestUseBeforeInit(t *testing.T) {
	r := analyzeSrc(t, `
func main() {
	var x;
	var y = x + 1;
	return y;
}`)
	d := wantCode(t, r, dpl.CodeUseBeforeInit)
	if !strings.Contains(d.Msg, `"x"`) {
		t.Fatalf("msg = %s", d.Msg)
	}
	if d.Pos.Line != 4 {
		t.Fatalf("pos = %s", d.Pos)
	}
}

func TestUseBeforeInitBranches(t *testing.T) {
	// Assigned on only one branch: still a maybe-uninitialized read.
	r := analyzeSrc(t, `
func f(c) {
	var x;
	if (c) { x = 1; }
	return x;
}`)
	wantCode(t, r, dpl.CodeUseBeforeInit)

	// Assigned on both branches: definitely initialized.
	r = analyzeSrc(t, `
func f(c) {
	var x;
	if (c) { x = 1; } else { x = 2; }
	return x;
}`)
	wantNoCode(t, r, dpl.CodeUseBeforeInit)
}

func TestUseBeforeInitLoopCarried(t *testing.T) {
	// The first iteration reads s before any assignment.
	r := analyzeSrc(t, `
func f(n) {
	var s;
	for (var i = 0; i < n; i += 1) {
		s = s + i;
	}
	return s;
}`)
	wantCode(t, r, dpl.CodeUseBeforeInit)
}

func TestShadowingDoesNotConfuseInit(t *testing.T) {
	// The inner x is a distinct, initialized variable; the outer x is
	// initialized too. No diagnostics.
	r := analyzeSrc(t, `
func f() {
	var x = 1;
	{
		var x = 2;
		log(str(x));
	}
	return x;
}`)
	wantNoCode(t, r, dpl.CodeUseBeforeInit)
}

func TestUnreachableAfterReturn(t *testing.T) {
	r := analyzeSrc(t, `
func f() {
	return 1;
	log("never");
}`)
	d := wantCode(t, r, dpl.CodeUnreachable)
	if d.Pos.Line != 4 {
		t.Fatalf("pos = %s", d.Pos)
	}
}

func TestUnreachableAfterInfiniteLoop(t *testing.T) {
	r := analyzeSrc(t, `
func main() {
	while (true) { sleep(100); }
	log("never");
}`)
	wantCode(t, r, dpl.CodeUnreachable)
}

func TestBreakMakesCodeReachable(t *testing.T) {
	r := analyzeSrc(t, `
func main() {
	while (true) {
		if (recv(0) == "stop") { break; }
	}
	log("reached via break");
}`)
	wantNoCode(t, r, dpl.CodeUnreachable)
}

func TestDeadStore(t *testing.T) {
	r := analyzeSrc(t, `
func f() {
	var x = len("abc");
	x = 7;
	return x;
}`)
	d := wantCode(t, r, dpl.CodeDeadStore)
	if d.Pos.Line != 3 {
		t.Fatalf("pos = %s", d.Pos)
	}

	// Trivial literal initializers are exempt (var x = 0; x = f() is idiom).
	r = analyzeSrc(t, `
func f() {
	var x = 0;
	x = len("abc");
	return x;
}`)
	wantNoCode(t, r, dpl.CodeDeadStore)
}

func TestDeadStoreLoopCarriedIsLive(t *testing.T) {
	r := analyzeSrc(t, `
func f(n) {
	var s = 0;
	for (var i = 0; i < n; i += 1) {
		s += i;
	}
	return s;
}`)
	wantNoCode(t, r, dpl.CodeDeadStore)
}

func TestGlobalNeverWritten(t *testing.T) {
	r := analyzeSrc(t, `
var ghost;
func f() { return ghost; }`)
	wantCode(t, r, dpl.CodeGlobalNeverWritten)

	r = analyzeSrc(t, `
var counted;
func f() { counted = 1; return counted; }`)
	wantNoCode(t, r, dpl.CodeGlobalNeverWritten)
}

func TestBusyLoop(t *testing.T) {
	r := analyzeSrc(t, `
func main() {
	var x = 0;
	while (true) { x += 1; }
}`)
	wantCode(t, r, dpl.CodeBusyLoop)

	// Yielding via a helper is fine (transitive closure).
	r = analyzeSrc(t, `
func nap() { sleep(100); }
func main() {
	while (true) { nap(); }
}`)
	wantNoCode(t, r, dpl.CodeBusyLoop)

	// A break makes it bounded-intent: no busy-loop warning.
	r = analyzeSrc(t, `
func main() {
	while (true) { break; }
}`)
	wantNoCode(t, r, dpl.CodeBusyLoop)
}

func TestEffectsInference(t *testing.T) {
	r := analyzeSrc(t, `
func watch() {
	var v = mibGet("1.3.6.1.2.1.1.3.0");
	mibSet("1.3.6.1.4.1.9.1", v);
	report(str(v));
}`)
	e := &r.Effects
	for _, h := range []string{"mibGet", "mibSet", "report", "str"} {
		if !slices.Contains(e.HostNames(), h) {
			t.Fatalf("missing host %s in %s", h, e)
		}
	}
	if got := e.ReadPrefixes(); len(got) != 1 || got[0] != "1.3.6.1.2.1.1.3.0" {
		t.Fatalf("reads = %v", got)
	}
	if got := e.WritePrefixes(); len(got) != 1 || got[0] != "1.3.6.1.4.1.9.1" {
		t.Fatalf("writes = %v", got)
	}
}

func TestEffectsTransitive(t *testing.T) {
	r := analyzeSrc(t, `
func helper() { return mibGet("1.3.6.1.2.1.2.1.0"); }
func main() { return helper(); }
`)
	fi := funcInfo(r, "main")
	if fi == nil || !slices.Contains(fi.Effects.HostNames(), "mibGet") {
		t.Fatalf("main effects = %v", fi)
	}
	if got := fi.Effects.ReadPrefixes(); len(got) != 1 || got[0] != "1.3.6.1.2.1.2.1.0" {
		t.Fatalf("main reads = %v", got)
	}
}

func TestEffectsConstantHeadPrefix(t *testing.T) {
	r := analyzeSrc(t, `
func f(i) {
	return mibGet("1.3.6.1.2.1.2.2.1.10." + str(i));
}`)
	wantNoCode(t, r, dpl.CodeDynamicOID)
	if got := r.Effects.ReadPrefixes(); len(got) != 1 || got[0] != "1.3.6.1.2.1.2.2.1.10" {
		t.Fatalf("reads = %v", got)
	}
}

func TestEffectsDynamicOIDWidens(t *testing.T) {
	r := analyzeSrc(t, `
func f(o) { return mibGet(o); }`)
	wantCode(t, r, dpl.CodeDynamicOID)
	if got := r.Effects.ReadPrefixes(); len(got) != 1 || got[0] != Wildcard {
		t.Fatalf("reads = %v", got)
	}
}

func TestEffectsPrefixMinimization(t *testing.T) {
	r := analyzeSrc(t, `
func f() {
	mibGet("1.3.6.1.2.1.1.3.0");
	mibWalk("1.3.6.1.2.1");
	mibGet("1.3.6.1.4.1.45.1");
}`)
	got := r.Effects.ReadPrefixes()
	want := []string{"1.3.6.1.2.1", "1.3.6.1.4.1.45.1"}
	if len(got) != len(want) {
		t.Fatalf("reads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reads = %v, want %v", got, want)
		}
	}
}

func TestCostConstantTripLoop(t *testing.T) {
	r := analyzeSrc(t, `
func f() {
	var s = 0;
	for (var i = 0; i < 10; i += 1) {
		s += i;
	}
	return s;
}`)
	fi := funcInfo(r, "f")
	if fi.Cost.Unbounded {
		t.Fatalf("cost = %v, want bounded", fi.Cost)
	}
	// 10 trips of a small body: the estimate must scale with trips.
	if fi.Cost.Steps < 40 || fi.Cost.Steps > 1000 {
		t.Fatalf("cost = %v", fi.Cost)
	}

	r2 := analyzeSrc(t, `
func f() {
	var s = 0;
	for (var i = 0; i < 1000; i += 1) {
		s += i;
	}
	return s;
}`)
	if c2 := funcInfo(r2, "f").Cost; c2.Unbounded || c2.Steps <= funcInfo(r, "f").Cost.Steps*50 {
		t.Fatalf("cost did not scale: %v vs %v", c2, funcInfo(r, "f").Cost)
	}
}

func TestCostUnboundedLoop(t *testing.T) {
	r := analyzeSrc(t, `
func f(n) {
	var s = 0;
	for (var i = 0; i < n; i += 1) { s += i; }
	return s;
}`)
	if !funcInfo(r, "f").Cost.Unbounded {
		t.Fatalf("cost = %v, want unbounded", funcInfo(r, "f").Cost)
	}
	if !r.Cost.Unbounded {
		t.Fatal("program cost should be unbounded")
	}
}

func TestCostRecursionUnbounded(t *testing.T) {
	r := analyzeSrc(t, `
func f(n) { if (n <= 0) { return 0; } return f(n - 1); }`)
	wantCode(t, r, dpl.CodeRecursion)
	if !funcInfo(r, "f").Cost.Unbounded {
		t.Fatal("recursive cost should be unbounded")
	}
}

func TestSuggestedBudget(t *testing.T) {
	bounded := analyzeSrc(t, `func f() { return 1 + 2; }`)
	if b := bounded.SuggestedBudget(0); b == 0 || b < bounded.Cost.Steps {
		t.Fatalf("budget = %d", b)
	}
	if b := bounded.SuggestedBudget(10); b != 10 {
		t.Fatalf("budget should respect server cap, got %d", b)
	}
	unbounded := analyzeSrc(t, `func f(n) { while (n) { n -= 1; } }`)
	if b := unbounded.SuggestedBudget(5000); b != 5000 {
		t.Fatalf("unbounded budget = %d, want fallback", b)
	}
}

func TestBudgetCoversActualExecution(t *testing.T) {
	// The derived budget must dominate the VM's real step count, or
	// admission would kill legitimate bounded programs.
	src := `
func main() {
	var s = 0;
	for (var i = 0; i < 100; i += 1) {
		s += i * 2 - 1;
	}
	return s;
}`
	prog, err := dpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := LintBindings()
	if errs := dpl.Check(prog, b); len(errs) > 0 {
		t.Fatal(errs)
	}
	rep := Analyze(prog, b)
	if rep.Cost.Unbounded {
		t.Fatalf("cost = %v", rep.Cost)
	}
	obj, err := dpl.Compile(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	vm := dpl.NewVM(obj, b, dpl.WithMaxSteps(rep.SuggestedBudget(0)))
	if _, err := vm.Run(context.Background(), "main"); err != nil {
		t.Fatalf("budget too tight: %v (budget %d)", err, rep.SuggestedBudget(0))
	}
}

func TestCleanProgramHasNoDiags(t *testing.T) {
	r := analyzeSrc(t, `
var seen = {};
func main() {
	while (true) {
		var v = mibGet("1.3.6.1.2.1.1.3.0");
		if (v != nil && !contains(seen, str(v))) {
			seen[str(v)] = true;
			report(str(v));
		}
		sleep(1000);
	}
}`)
	if len(r.Diags) != 0 {
		t.Fatalf("diags = %v", r.Diags)
	}
}

func TestDiagStringFormat(t *testing.T) {
	r := analyzeSrc(t, `
func f() {
	return 1;
	log("x");
}`)
	d := wantCode(t, r, dpl.CodeUnreachable)
	s := d.String()
	if !strings.Contains(s, "warning[DPL002]") || !strings.Contains(s, "4:") {
		t.Fatalf("diag string = %q", s)
	}
	if got := codes(r); len(got) == 0 {
		t.Fatal("no codes")
	}
}

// TestAnalyzeReusesCompileResolution: a cold admission parses, compiles
// and analyzes one program, and the resolver runs once, in Compile.
// Analyze reads the names Compile's Check bound rather than walking the
// program again.
func TestAnalyzeReusesCompileResolution(t *testing.T) {
	prog, err := dpl.Parse(`func main() { var up = mibGet("1.3.6.1.2.1.1.3.0"); return up; }`)
	if err != nil {
		t.Fatal(err)
	}
	b := LintBindings()
	if _, err := dpl.Compile(prog, b); err != nil {
		t.Fatal(err)
	}
	// A mark a second resolution would overwrite: the frame Check numbered.
	prog.Funcs[0].Locals[0] = "mark"
	if rep := Analyze(prog, b); len(rep.Diags) != 0 {
		t.Fatalf("diags = %v", rep.Diags)
	}
	if prog.Funcs[0].Locals[0] != "mark" {
		t.Fatal("Analyze resolved a program Compile had already resolved against the same bindings")
	}
}

// TestAnalyzeReportsTranslatorRules: an unchecked program is analyzed
// all the same, and its Translator rule violations are error findings
// among the analyzer's own.
func TestAnalyzeReportsTranslatorRules(t *testing.T) {
	prog, err := dpl.Parse("func main() {\n\tvar x;\n\treturn x + y;\n}")
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(prog, LintBindings())
	if got := strings.Join(codes(rep), ","); got != "DPL001,DPL019" {
		t.Fatalf("codes = %s (%v), want DPL001,DPL019", got, rep.Diags)
	}
	if !dpl.HasErrors(rep.Diags) {
		t.Fatal("an undeclared name is not an error")
	}
}

// funcInfo returns r's summary of the named function, or nil.
func funcInfo(r *Report, name string) *FuncInfo {
	for _, f := range r.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}
