package dpl_test

import (
	"slices"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
)

// honestArtifact runs src through the pipeline a delegating node
// runs — parse, compile, analyze, optionally optimize — and packages
// the result with the verdict that node would declare. ok is false
// when the node would refuse the source.
func honestArtifact(src string, b *dpl.Bindings, optimize bool) (*dpl.CompiledProgram, bool) {
	prog, err := dpl.Parse(src)
	if err != nil {
		return nil, false
	}
	obj, err := dpl.Compile(prog, b)
	if err != nil {
		return nil, false
	}
	rep := analysis.Analyze(prog, b)
	if dpl.HasErrors(rep.Diags) {
		return nil, false
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
	}, true
}

// FuzzHonestArtifactVerifies: every program a node admits from source
// must pass the bytecode verifier of every node below it, which must
// recover exactly the declared effects: both are
// analysis.Scratch.Recover over the same optimized bytes. Otherwise a
// federation root ships artifacts its own children refuse, or judge by
// other effects than the root did.
func FuzzHonestArtifactVerifies(f *testing.F) {
	for seed := range int64(16) {
		f.Add(dpl.GenProgram(seed, true))
	}
	f.Add(`func main(x) { return mibGet("1.3.6" + (x && ".1")); }`)
	b := analysis.LintBindings()
	f.Fuzz(func(t *testing.T, src string) {
		cp, ok := honestArtifact(src, b, true)
		if !ok {
			return
		}
		res := verify.Verify(cp, b)
		if err := res.Err(); err != nil {
			t.Fatalf("honest artifact rejected: %v\n%s\n%s", err, src, dpl.Disassemble(cp.Object))
		}
		if !declares(cp.Verdict, res.Recovered) {
			t.Fatalf("recovered %s, declared %+v\n%s", res.Recovered.String(), cp.Verdict, src)
		}
	})
}

// declares reports whether v names exactly the effects in e.
func declares(v dpl.Verdict, e analysis.Effects) bool {
	return slices.Equal(v.Hosts, e.HostNames()) && slices.Equal(v.Reads, e.ReadPrefixes()) && slices.Equal(v.Writes, e.WritePrefixes())
}

func covered(declared []string, oid string) bool {
	for _, d := range declared {
		if analysis.OIDCovers(d, oid) {
			return true
		}
	}
	return false
}
