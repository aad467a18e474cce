package dpl_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
)

// Differentials of the abstract walker's two clients against the code
// they replaced (optimize_ref_test.go, recover_ref_test.go), over every
// committed DPL source, every committed FuzzVerify seed and generated
// programs.

// generatedPrograms is how many generator programs each differential
// runs: half plain, half with MIB calls.
const generatedPrograms = 20000

// committedSources gathers every DPL source committed to the
// repository: corpusSources plus the other corpora and test programs.
func committedSources(t testing.TB) map[string]string {
	t.Helper()
	srcs := corpusSources(t)
	addFuzzCorpus(t, srcs, "FuzzCheckMatchesReference", "FuzzHonestArtifactVerifies")
	for _, file := range []string{
		filepath.Join("analysis", "testdata", "diagnostics.dpl"),
		filepath.Join("..", "mbd", "testdata", "agent_rpc.dpl"),
		filepath.Join("..", "mbd", "testdata", "delegate_cold.dpl"),
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[file] = string(data)
	}
	return srcs
}

// fuzzVerifySeeds decodes the committed FuzzVerify corpus.
func fuzzVerifySeeds(t testing.TB) map[string]*dpl.CompiledProgram {
	t.Helper()
	dir := filepath.Join("verify", "testdata", "fuzz", "FuzzVerify")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]*dpl.CompiledProgram{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, _ := strings.Cut(string(data), "[]byte(")
		blob, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(quoted), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if cp, err := dpl.DecodeProgram([]byte(blob)); err == nil {
			seeds[e.Name()] = cp
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no decodable FuzzVerify seeds")
	}
	return seeds
}

// forEachProgram calls f with every committed source and the generated
// programs, named for the failure messages.
func forEachProgram(t *testing.T, f func(name, src string)) {
	for name, src := range committedSources(t) {
		f(name, src)
	}
	n := generatedPrograms
	if testing.Short() || raceEnabled {
		n /= 20
	}
	for seed := range n {
		f("generated seed "+strconv.Itoa(seed), dpl.GenProgram(int64(seed), seed%2 == 1))
	}
}

// encodeObject is the wire encoding of c's code and constant pool.
func encodeObject(t *testing.T, c *dpl.Compiled) []byte {
	t.Helper()
	blob, err := (&dpl.CompiledProgram{Version: dpl.CompilerVersion, Object: c}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestOptimizeMatchesReference: Optimize must emit the same
// instructions and constant pool, and count the same rewrites, as
// Optimize with the reference propagation pass. Each program is
// optimized twice, so the second round meets fused opcodes.
func TestOptimizeMatchesReference(t *testing.T) {
	b := analysis.LintBindings()
	compared := 0
	check := func(name string, mk func() *dpl.Compiled) {
		got, want := mk(), mk()
		for round := range 2 {
			gs, ws := dpl.Optimize(got), dpl.RefOptimize(want)
			if gs != ws || !bytes.Equal(encodeObject(t, got), encodeObject(t, want)) {
				t.Fatalf("%s (round %d): optimizer differs from the reference (stats %+v, want %+v)\n--- got ---\n%s--- want ---\n%s",
					name, round, gs, ws, dpl.Disassemble(got), dpl.Disassemble(want))
			}
		}
		compared++
	}
	forEachProgram(t, func(name, src string) {
		prog, err := dpl.Parse(src)
		if err != nil {
			return
		}
		if _, err := dpl.Compile(prog, b); err != nil {
			return
		}
		check(name, func() *dpl.Compiled {
			c, _ := dpl.Compile(prog, b)
			return c
		})
	})
	for name, cp := range fuzzVerifySeeds(t) {
		if len(new(dpl.Scratch).VerifyStructure(cp.Object)) > 0 {
			continue // Optimize is defined on well-formed code only
		}
		blob := encodeObject(t, cp.Object)
		check(name, func() *dpl.Compiled {
			dec, err := dpl.DecodeProgram(blob)
			if err != nil {
				t.Fatal(err)
			}
			return dec.Object
		})
	}
	t.Logf("%d programs optimized alike", compared)
}

// TestVerifyMatchesReference: on every honest artifact (optimized or
// not) and every FuzzVerify seed, Verify must raise the reference's
// DPL014 diagnostics and recover the reference's effects. The
// reference forgot the whole operand stack at every jump target, so a
// MIB call whose OID has a constant head below a short circuit
// recovered the wildcard. The allowed differences are that fix,
// showing on honest artifacts only: one the reference rejected, or one
// both accept where every prefix Verify recovers is covered by one the
// reference recovered. Every optimized honest artifact — what a node
// ships — must pass.
func TestVerifyMatchesReference(t *testing.T) {
	b := analysis.LintBindings()
	compared, fixed, still, refined := 0, 0, 0, 0
	check := func(name string, cp *dpl.CompiledProgram, bindings *dpl.Bindings, honest bool) {
		got := verify.Verify(cp, bindings)
		if slices.ContainsFunc(got.Diags, structural) {
			return // neither recovers effects from broken code
		}
		want := refRecover(cp)
		gotDiags := slices.DeleteFunc(slices.Clone(got.Diags), func(d dpl.Diagnostic) bool { return d.Code != dpl.CodeEffectUndeclared })
		compared++
		switch {
		case slices.Equal(gotDiags, want.Diags) && effectsEqual(got.Recovered, want.Recovered):
		case honest && len(want.Diags) > 0 && len(gotDiags) == 0:
			if fixed++; fixed <= 3 {
				t.Logf("%s: honest artifact the reference rejected: %s", name, want.Diags[0].Msg)
			}
		case honest && len(want.Diags) > 0:
			still++
			t.Logf("%s: honest artifact both reject: %s", name, gotDiags[0].Msg)
		case honest && len(want.Diags) == 0 && len(gotDiags) == 0 && refines(got.Recovered, want.Recovered):
			if refined++; refined <= 3 {
				t.Logf("%s: recovers %s where the reference recovered %s", name, got.Recovered.String(), want.Recovered.String())
			}
		default:
			t.Errorf("%s: verifier differs from the reference\ngot:  %v %+v\nwant: %v %+v\n%s",
				name, gotDiags, got.Recovered, want.Diags, want.Recovered, dpl.Disassemble(cp.Object))
		}
	}
	forEachProgram(t, func(name, src string) {
		for _, optimize := range []bool{false, true} {
			cp, ok := honestArtifact(src, b, optimize)
			if !ok {
				continue
			}
			name := fmt.Sprintf("%s (optimized=%v)", name, optimize)
			check(name, cp, b, true)
			if err := verify.Verify(cp, b).Err(); optimize && err != nil {
				t.Errorf("%s: honest artifact rejected: %v", name, err)
			}
		}
	})
	for name, cp := range fuzzVerifySeeds(t) {
		check(name, cp, quietBindings(cp), false)
	}
	t.Logf("%d artifacts verified: %d honest ones only the reference rejected, %d both reject, %d with narrower recovered prefixes, the rest alike",
		compared, fixed, still, refined)
}

// refines reports whether got names the same hosts as want and every
// OID prefix in got is covered by one in want.
func refines(got, want analysis.Effects) bool {
	within := func(x, y []analysis.Effect) bool {
		for _, e := range x {
			if !slices.ContainsFunc(y, func(w analysis.Effect) bool { return analysis.OIDCovers(w.Name, e.Name) }) {
				return false
			}
		}
		return true
	}
	return effectsEqual(analysis.Effects{Hosts: got.Hosts}, analysis.Effects{Hosts: want.Hosts}) &&
		within(got.Reads, want.Reads) && within(got.Writes, want.Writes)
}

func structural(d dpl.Diagnostic) bool {
	switch d.Code {
	case dpl.CodeBadOpcode, dpl.CodeBadJump, dpl.CodeStackUnsafe, dpl.CodeBadOperand, dpl.CodeVersionSkew:
		return true
	}
	return false
}

func effectsEqual(a, b analysis.Effects) bool {
	same := func(x, y []analysis.Effect) bool {
		return slices.EqualFunc(x, y, func(p, q analysis.Effect) bool { return p.Name == q.Name })
	}
	return same(a.Hosts, b.Hosts) && same(a.Reads, b.Reads) && same(a.Writes, b.Writes)
}

// quietBindings binds the artifact's own host table in slot order, as
// the FuzzVerify target does.
func quietBindings(cp *dpl.CompiledProgram) *dpl.Bindings {
	b := dpl.NewBindings()
	for _, name := range cp.Object.HostNames {
		b.Register(name, -1, func(*dpl.Env, []dpl.Value) (dpl.Value, error) { return dpl.Value{}, nil })
	}
	return b
}

// checkEffects runs src through source admission (analysis.Translate)
// and the reference inference. The summary recovered from the optimized
// object code must never be wider than the reference's, for the program
// and for each function: no host the reference did not name, no OID
// prefix no reference prefix covers. An admitted program's artifact, as
// a child decodes it, must verify with recovered effects exactly the
// declared ones. ok is false when the source does not translate;
// narrowed reports whether the program summary differs from the
// reference's.
func checkEffects(t *testing.T, name, src string, b *dpl.Bindings) (narrowed, ok bool) {
	t.Helper()
	prog, err := dpl.Parse(src)
	if err != nil {
		return false, false
	}
	obj, rep, err := analysis.Translate(prog, b)
	if err != nil {
		return false, false
	}
	want, wantFuncs := refEffects(prog)
	if !within(rep.Effects, want) {
		t.Errorf("%s: recovered %s, wider than the reference's %s\n%s", name, rep.Effects.String(), want.String(), src)
	}
	for i, f := range rep.Funcs {
		if !within(f.Effects, wantFuncs[i]) {
			t.Errorf("%s: func %s recovers %s, wider than the reference's %s", name, f.Name, f.Effects.String(), wantFuncs[i].String())
		}
	}
	if !dpl.HasErrors(rep.Diags) {
		blob, err := (&dpl.CompiledProgram{Version: dpl.CompilerVersion, Verdict: rep.Verdict(), Object: obj}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := dpl.DecodeProgram(blob)
		if err != nil {
			t.Fatal(err)
		}
		res := verify.Verify(dec, b)
		if err := res.Err(); err != nil {
			t.Errorf("%s: admitted program's artifact rejected: %v", name, err)
		} else if !declares(dec.Verdict, res.Recovered) {
			t.Errorf("%s: declared %+v, recovered %s", name, dec.Verdict, res.Recovered.String())
		}
	}
	return !effectsEqual(rep.Effects, want), true
}

// within reports whether every host of got is one of want's and every
// OID prefix of got is covered by one of want's.
func within(got, want analysis.Effects) bool {
	covers := func(x, y []analysis.Effect) bool {
		for _, e := range x {
			if !slices.ContainsFunc(y, func(w analysis.Effect) bool { return analysis.OIDCovers(w.Name, e.Name) }) {
				return false
			}
		}
		return true
	}
	for _, h := range got.Hosts {
		if !slices.ContainsFunc(want.Hosts, func(w analysis.Effect) bool { return w.Name == h.Name }) {
			return false
		}
	}
	return covers(got.Reads, want.Reads) && covers(got.Writes, want.Writes)
}

// TestEffectsMatchReference: over every committed source and 20,000
// generated programs with MIB calls, the effects source admission
// recovers are never wider than the reference inference's, equal to it
// on the example agents, and exactly what each admitted artifact's
// verifier recovers.
func TestEffectsMatchReference(t *testing.T) {
	b := analysis.LintBindings()
	translated, narrowed := 0, 0
	for name, src := range committedSources(t) {
		n, ok := checkEffects(t, name, src, b)
		if !ok {
			continue
		}
		translated++
		if n && strings.Contains(name, filepath.Join("examples", "agents")) {
			t.Errorf("%s: an example agent's effects moved", name)
		}
		if n {
			narrowed++
			t.Logf("%s: narrower than the reference", name)
		}
	}
	t.Logf("%d committed sources translated, %d narrower than the reference", translated, narrowed)
	n := generatedPrograms
	if testing.Short() || raceEnabled {
		n /= 20
	}
	translated, narrowed = 0, 0
	for seed := range n {
		nw, ok := checkEffects(t, "generated seed "+strconv.Itoa(seed), dpl.GenProgram(int64(seed), true), b)
		if ok {
			translated++
		}
		if nw {
			narrowed++
		}
	}
	t.Logf("%d of %d generated programs translated, %d narrower than the reference", translated, n, narrowed)
}

// FuzzEffectsNeverWiden explores checkEffects from source text.
func FuzzEffectsNeverWiden(f *testing.F) {
	for seed := range int64(16) {
		f.Add(dpl.GenProgram(seed, true))
	}
	f.Add(`func main() { var o = "1.3.6.1.2.1.1.3.0"; return mibGet(o); }`)
	f.Add(`func main(x) { return mibGet("1.3." + ((5 < 3) || "2.0")); }`)
	f.Add(`func main(x) { return mibGet("1.3.6." + x + ".1") + mibGet("1.3.6.1." + x + 5 + x); }`)
	f.Add(`func main() { return 1; report("dead"); }`)
	b := analysis.LintBindings()
	f.Fuzz(func(t *testing.T, src string) {
		checkEffects(t, "fuzz input", src, b)
	})
}
