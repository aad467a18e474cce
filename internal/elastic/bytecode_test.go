package elastic

import (
	"context"
	"errors"
	"slices"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/obs"
)

const cacheTestSrc = `func main() { return mibGet("1.3.6.1.2.1.1.3.0"); }`

// newBytecodeProcess builds a process with the MIB primitives stubbed,
// so effect-bearing programs admit and run.
func newBytecodeProcess(cfg Config) *Process {
	b := dpl.Std()
	stub := func(*dpl.Env, []dpl.Value) (dpl.Value, error) { return dpl.Int(7), nil }
	b.Register("mibGet", 1, stub)
	b.Register("mibSet", 2, stub)
	cfg.Bindings = b
	return NewProcess(cfg)
}

func counterValue(reg *obs.Registry, name string) uint64 {
	for _, s := range reg.Flatten() {
		if s.Name == name {
			return s.Value()
		}
	}
	return 0
}

// TestProgramCacheHits: re-delegating identical source must translate
// once and serve every later admission from the cache.
func TestProgramCacheHits(t *testing.T) {
	reg := obs.NewRegistry()
	p := newBytecodeProcess(Config{Obs: reg})
	defer p.Stop()
	for i := 0; i < 5; i++ {
		if err := p.Delegate("boss", "agent", "dpl", cacheTestSrc); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(reg, "elastic_source_analyses_total"); got != 1 {
		t.Errorf("source analyses = %d, want 1", got)
	}
	if got := counterValue(reg, "elastic_progcache_hits_total"); got != 4 {
		t.Errorf("cache hits = %d, want 4", got)
	}
	if got := counterValue(reg, "elastic_progcache_misses_total"); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	// The cached object still instantiates and runs.
	dpi, err := p.Instantiate("boss", "agent", "main")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := dpi.Wait(context.Background()); err != nil || v != int64(7) {
		t.Fatalf("cached program ran to (%v, %v)", v, err)
	}
}

// TestProgramCacheDisabled: ProgramCacheSize < 0 must translate every
// delegation from scratch.
func TestProgramCacheDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	p := newBytecodeProcess(Config{Obs: reg, ProgramCacheSize: -1})
	defer p.Stop()
	for i := 0; i < 3; i++ {
		if err := p.Delegate("boss", "agent", "dpl", cacheTestSrc); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(reg, "elastic_source_analyses_total"); got != 3 {
		t.Errorf("source analyses = %d, want 3", got)
	}
}

// TestProgramCacheEviction: the LRU must hold at most its capacity and
// count evictions.
func TestProgramCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	p := newBytecodeProcess(Config{Obs: reg, ProgramCacheSize: 2})
	defer p.Stop()
	srcs := []string{
		`func main() { return 1; }`,
		`func main() { return 2; }`,
		`func main() { return 3; }`,
	}
	for i, src := range srcs {
		if err := p.Delegate("boss", string(rune('a'+i)), "dpl", src); err != nil {
			t.Fatal(err)
		}
	}
	if n := cachedPrograms(p); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
	if got := counterValue(reg, "elastic_progcache_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestDelegateCompiledRoundTrip: an artifact produced by one process's
// source delegation admits on another via verification alone, and runs.
func TestDelegateCompiledRoundTrip(t *testing.T) {
	regA := obs.NewRegistry()
	sender := newBytecodeProcess(Config{Obs: regA})
	defer sender.Stop()
	if err := sender.Delegate("boss", "agent", "dpl", cacheTestSrc); err != nil {
		t.Fatal(err)
	}
	dp, _ := sender.Repository().Lookup("agent")
	if dp.Program == nil {
		t.Fatal("source delegation did not attach a Program artifact")
	}
	blob, err := dp.Program.Encode()
	if err != nil {
		t.Fatal(err)
	}

	regB := obs.NewRegistry()
	receiver := newBytecodeProcess(Config{Obs: regB})
	defer receiver.Stop()
	if err := receiver.DelegateCompiled("boss", "agent", blob); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(regB, "elastic_bytecode_verifications_total"); got != 1 {
		t.Errorf("verifications = %d, want 1", got)
	}
	if got := counterValue(regB, "elastic_source_analyses_total"); got != 0 {
		t.Errorf("receiver ran %d source analyses, want 0", got)
	}
	got, _ := receiver.Repository().Lookup("agent")
	if got.Lang != LangCompiled || got.Source != "" {
		t.Errorf("stored DP lang=%q source=%q", got.Lang, got.Source)
	}
	if !slices.Contains(got.Effects.HostNames(), "mibGet") {
		t.Errorf("verified effects lost: %v", got.Effects.String())
	}
	dpi, err := receiver.Instantiate("boss", "agent", "main")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := dpi.Wait(context.Background()); err != nil || v != int64(7) {
		t.Fatalf("bytecode-admitted program ran to (%v, %v)", v, err)
	}

	// A repeat of the same artifact is served by the cache, skipping
	// re-verification.
	if err := receiver.DelegateCompiled("boss", "again", blob); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(regB, "elastic_bytecode_verifications_total"); got != 1 {
		t.Errorf("verifications after cached re-delegation = %d, want 1", got)
	}
}

// TestHonestArtifactSurvivesShortCircuitJoin: the artifact a node
// ships for a source it admitted must admit on the node below, even
// when the OID's constant head sits below a short circuit on the
// operand stack.
func TestHonestArtifactSurvivesShortCircuitJoin(t *testing.T) {
	const src = `func main(x) { return mibGet("1.3.6" + (x && ".1")); }`
	sender := newBytecodeProcess(Config{})
	defer sender.Stop()
	if err := sender.Delegate("boss", "agent", "dpl", src); err != nil {
		t.Fatal(err)
	}
	dp, _ := sender.Repository().Lookup("agent")
	receiver := newBytecodeProcess(Config{})
	defer receiver.Stop()
	if err := receiver.DelegateCompiled("boss", "agent", mustEncode(t, dp.Program)); err != nil {
		t.Fatalf("the sender's own artifact was refused: %v", err)
	}
	got, _ := receiver.Repository().Lookup("agent")
	if reads := got.Effects.ReadPrefixes(); len(reads) != 1 || reads[0] != "1.3" {
		t.Errorf("reads = %v, want [1.3]", reads)
	}
}

// TestReceivedArtifactCannotPoisonSourceCache: an artifact that claims
// the SourceHash of another program must not be what a later source
// delegation of that program runs.
func TestReceivedArtifactCannotPoisonSourceCache(t *testing.T) {
	const honest, evil = `func main() { return 1; }`, `func main() { return 666; }`
	sender := newBytecodeProcess(Config{})
	defer sender.Stop()
	if err := sender.Delegate("mallory", "evil", "dpl", evil); err != nil {
		t.Fatal(err)
	}
	dp, _ := sender.Repository().Lookup("evil")
	forged := *dp.Program
	forged.SourceHash = dpl.HashSource(honest)

	p := newBytecodeProcess(Config{})
	defer p.Stop()
	if err := p.DelegateCompiled("mallory", "evil", mustEncode(t, &forged)); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate("alice", "agent", "dpl", honest); err != nil {
		t.Fatal(err)
	}
	dpi, err := p.Instantiate("alice", "agent", "main")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := dpi.Wait(context.Background()); err != nil || v != int64(1) {
		t.Fatalf("alice's program ran to (%v, %v), want 1", v, err)
	}
}

// TestDelegateCompiledRejectsTampering: a corrupted artifact must be
// refused with verifier diagnostics and accounted as a rejection.
func TestDelegateCompiledRejectsTampering(t *testing.T) {
	sender := newBytecodeProcess(Config{})
	defer sender.Stop()
	if err := sender.Delegate("boss", "agent", "dpl", cacheTestSrc); err != nil {
		t.Fatal(err)
	}
	dp, _ := sender.Repository().Lookup("agent")

	// Structural tampering: bad opcode.
	cp, err := dpl.DecodeProgram(mustEncode(t, dp.Program))
	if err != nil {
		t.Fatal(err)
	}
	cp.Object.Funcs[0].Code[0].Op = 99
	blob := mustEncode(t, cp)

	reg := obs.NewRegistry()
	receiver := newBytecodeProcess(Config{Obs: reg})
	defer receiver.Stop()
	err = receiver.DelegateCompiled("boss", "bad", blob)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("tampered artifact admitted: %v", err)
	}
	if !hasDiagCode(rej.Diags, dpl.CodeBadOpcode) {
		t.Errorf("diags = %v", rej.Diags)
	}
	if _, ok := receiver.Repository().Lookup("bad"); ok {
		t.Error("rejected artifact was stored")
	}

	// Lying verdict: declared effects stripped.
	cp2, _ := dpl.DecodeProgram(mustEncode(t, dp.Program))
	cp2.Verdict.Hosts, cp2.Verdict.Reads = nil, nil
	err = receiver.DelegateCompiled("boss", "liar", mustEncode(t, cp2))
	if !errors.As(err, &rej) || !hasDiagCode(rej.Diags, dpl.CodeEffectUndeclared) {
		t.Fatalf("stripped-verdict artifact not rejected with DPL014: %v", err)
	}
}

// TestCompiledAdmissionMatchesSourcePolicy: a program the source
// pipeline rejects for capability reasons must also be rejected when it
// arrives as verified bytecode — the ACL check fires on the effects the
// receiver recovered from the code, which an honest verdict declares
// exactly (DPL007), and a verdict doctored to hide them trips the
// verifier instead (DPL014). There is no admission path a compiled
// artifact can take that source could not.
func TestCompiledAdmissionMatchesSourcePolicy(t *testing.T) {
	src := `func main(v) { mibSet("1.3.6.1.4.1.9", v); return nil; }`

	acl := NewACL()
	acl.Grant("limited", RightDelegate, RightInstantiate)
	acl.Limit("limited", Capability{
		Hosts:  []string{"mibSet"},
		Writes: []string{"1.3.6.1.2"}, // enterprise subtree not granted
	})

	// Source-level rejection on the restricted node.
	restricted := newBytecodeProcess(Config{ACL: acl})
	defer restricted.Stop()
	err := restricted.Delegate("limited", "agent", "dpl", src)
	var rej *RejectError
	if !errors.As(err, &rej) || !hasDiagCode(rej.Diags, dpl.CodeEffectDenied) {
		t.Fatalf("source pipeline accepted out-of-grant program: %v", err)
	}

	// The same program compiled on an unrestricted node...
	builder := newBytecodeProcess(Config{})
	defer builder.Stop()
	if err := builder.Delegate("boss", "agent", "dpl", src); err != nil {
		t.Fatal(err)
	}
	dp, _ := builder.Repository().Lookup("agent")
	blob := mustEncode(t, dp.Program)

	// ...must still be refused by the restricted node's bytecode path.
	err = restricted.DelegateCompiled("limited", "agent", blob)
	if !errors.As(err, &rej) || !hasDiagCode(rej.Diags, dpl.CodeEffectDenied) {
		t.Fatalf("bytecode path accepted what source rejected: %v", err)
	}
}

// TestSourceAndBytecodeAdmitAlike: source admission decides capability
// on the effects of the optimized object code, the same inference every
// receiver runs on the artifact, so an OID held in a local is the
// constant it is at both tiers, not the whole MIB at the root alone.
func TestSourceAndBytecodeAdmitAlike(t *testing.T) {
	const src = `func main() { var o = "1.3.6.1.2.1.1.3.0"; return mibGet(o); }`
	acl := NewACL()
	acl.Grant("noc", RightDelegate, RightInstantiate)
	acl.Limit("noc", Capability{Reads: []string{"1.3.6.1.2.1.1"}})

	root := newBytecodeProcess(Config{ACL: acl})
	defer root.Stop()
	if err := root.Delegate("noc", "uptime", "dpl", src); err != nil {
		t.Fatalf("source admission refused an in-grant read: %v", err)
	}
	dp, _ := root.Repository().Lookup("uptime")
	if got := dp.Program.Verdict; !slices.Equal(got.Reads, []string{"1.3.6.1.2.1.1.3.0"}) {
		t.Fatalf("root verdict reads=%v, want [1.3.6.1.2.1.1.3.0]", got.Reads)
	}

	child := newBytecodeProcess(Config{ACL: acl})
	defer child.Stop()
	if err := child.DelegateCompiled("noc", "uptime", mustEncode(t, dp.Program)); err != nil {
		t.Fatalf("the root's own artifact was refused: %v", err)
	}
}

// TestCompiledPersistence: save/load round-trips a bytecode-admitted DP
// through the .dplc on-disk form.
func TestCompiledPersistence(t *testing.T) {
	sender := newBytecodeProcess(Config{})
	defer sender.Stop()
	if err := sender.Delegate("boss", "shipped", "dpl", cacheTestSrc); err != nil {
		t.Fatal(err)
	}
	dp, _ := sender.Repository().Lookup("shipped")

	acl := NewACL()
	acl.Grant("boss", RightDelegate)
	node := newBytecodeProcess(Config{ACL: acl})
	defer node.Stop()
	if err := node.DelegateCompiled("boss", "shipped", mustEncode(t, dp.Program)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := node.SaveRepository(dir); err != nil {
		t.Fatal(err)
	}

	fresh := newBytecodeProcess(Config{ACL: acl})
	defer fresh.Stop()
	n, err := fresh.LoadRepository(dir, "boss")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d programs, want 1", n)
	}
	got, ok := fresh.Repository().Lookup("shipped")
	if !ok || got.Lang != LangCompiled || got.Program == nil {
		t.Fatalf("reloaded DP: %+v", got)
	}
}

func mustEncode(t *testing.T, cp *dpl.CompiledProgram) []byte {
	t.Helper()
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func hasDiagCode(diags []dpl.Diagnostic, code string) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// cachedPrograms reports how many programs p's translation cache holds.
func cachedPrograms(p *Process) int {
	p.progCache.mu.Lock()
	defer p.progCache.mu.Unlock()
	return p.progCache.ll.Len()
}

// TestCompiledCostClaimRecomputed: a receiver prices an artifact itself
// and admits on that price. A verdict that claims one step and a 2^40
// step budget for a 10,000-trip loop is refused with DPL015 under a
// cost ceiling of 100, where trusting the claim would store it with
// that cost and budget. An honest artifact's DP gets the step budget
// its source delegation gets.
func TestCompiledCostClaimRecomputed(t *testing.T) {
	const src = `func main() { var s = 0; for (var i = 0; i < 10000; i += 1) { s += i; } return s; }`
	cfg := Config{MaxStepsPerDPI: 1 << 30}
	sender := newBytecodeProcess(cfg)
	defer sender.Stop()
	if err := sender.Delegate("boss", "loop", "dpl", src); err != nil {
		t.Fatal(err)
	}
	dp, _ := sender.Repository().Lookup("loop")

	liar, err := dpl.DecodeProgram(mustEncode(t, dp.Program))
	if err != nil {
		t.Fatal(err)
	}
	liar.Verdict.CostSteps, liar.Verdict.StepBudget = 1, 1<<40
	strict := newBytecodeProcess(Config{CostCeiling: 100})
	defer strict.Stop()
	err = strict.DelegateCompiled("boss", "liar", mustEncode(t, liar))
	var rej *RejectError
	if !errors.As(err, &rej) || !hasDiagCode(rej.Diags, dpl.CodeBudgetMismatch) {
		t.Fatalf("a 1-step claim for a 10,000-trip loop: %v", err)
	}
	if _, ok := strict.Repository().Lookup("liar"); ok {
		t.Fatal("the lying artifact was stored")
	}

	receiver := newBytecodeProcess(cfg)
	defer receiver.Stop()
	if err := receiver.DelegateCompiled("boss", "loop", mustEncode(t, dp.Program)); err != nil {
		t.Fatal(err)
	}
	got, _ := receiver.Repository().Lookup("loop")
	if got.StepBudget != dp.StepBudget || got.Cost.Steps != dp.Cost.Steps || got.Cost.Unbounded {
		t.Fatalf("compiled DP: cost %v, budget %d; source DP: cost %v, budget %d", got.Cost, got.StepBudget, dp.Cost, dp.StepBudget)
	}
	if dp.Cost.Steps < 10000 || dp.StepBudget < dp.Cost.Steps || dp.StepBudget >= cfg.MaxStepsPerDPI {
		t.Fatalf("source DP: cost %v, budget %d", dp.Cost, dp.StepBudget)
	}
}
