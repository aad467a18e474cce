package dpl_test

import (
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
	if rep.HasErrors() {
		return nil, false
	}
	if optimize {
		dpl.Optimize(obj)
	}
	return &dpl.CompiledProgram{
		Version:    dpl.CompilerVersion,
		SourceHash: dpl.HashSource(src),
		Verdict: dpl.Verdict{
			Hosts:         rep.Effects.HostNames(),
			Reads:         rep.Effects.ReadPrefixes(),
			Writes:        rep.Effects.WritePrefixes(),
			CostSteps:     rep.Cost.Steps,
			CostUnbounded: rep.Cost.Unbounded,
			StepBudget:    rep.SuggestedBudget(0),
		},
		Object: obj,
	}, true
}

// FuzzHonestArtifactVerifies: every program a node admits from source
// must pass the bytecode verifier of every node below it, with the
// effects recovered from the bytecode inside the declared ones.
// Otherwise a federation root ships artifacts its own children refuse.
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
		declared := cp.Verdict
		for _, h := range res.Recovered.Hosts {
			if !contains(declared.Hosts, h.Name) {
				t.Fatalf("recovered host %q not declared in %v\n%s", h.Name, declared.Hosts, src)
			}
		}
		for _, kind := range []struct {
			recovered []analysis.Effect
			declared  []string
		}{{res.Recovered.Reads, declared.Reads}, {res.Recovered.Writes, declared.Writes}} {
			for _, e := range kind.recovered {
				if !covered(kind.declared, e.Name) {
					t.Fatalf("recovered OID prefix %q not covered by %v\n%s", e.Name, kind.declared, src)
				}
			}
		}
	})
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

func covered(declared []string, oid string) bool {
	for _, d := range declared {
		if analysis.OIDCovers(d, oid) {
			return true
		}
	}
	return false
}
