package elastic

import (
	"crypto/sha256"
	"fmt"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
)

// Verified-bytecode admission. DelegateCompiled is the second delegate
// primitive: instead of source, the caller ships an encoded
// CompiledProgram (object code plus the sender's analysis verdict).
// The receiver never trusts the artifact — the bytecode verifier
// re-proves structural safety and checks the verdict against the code
// before the same per-principal admission policy that governs source
// delegations is applied to the effects and the cost the receiver
// recovered, and the step budget is derived from that cost.

// LangCompiled is the Lang value of a DP admitted from verified
// bytecode; such DPs carry no source.
const LangCompiled = "dplc"

// DelegateCompiled verifies and stores a compiled program artifact
// under name. The blob is a dpl.CompiledProgram encoding, typically
// produced by an upstream hop's source-level delegation.
func (p *Process) DelegateCompiled(principal, name string, blob []byte) error {
	if !p.cfg.ACL.Allow(principal, RightDelegate) {
		return fmt.Errorf("%w: %s may not delegate", ErrDenied, principal)
	}
	dp, err := p.prepareCompiled(principal, name, blob)
	if err != nil {
		return err
	}
	return p.commit(dp)
}

// CompileProgram translates source through the content-addressed
// program cache into a shippable CompiledProgram, without touching the
// repository or the admission policy. The golden-bundle publisher uses
// it to normalize source items into canonical artifacts before content
// addressing.
func (p *Process) CompileProgram(lang, source string) (*dpl.CompiledProgram, error) {
	ent, err := p.translateCached(lang, source)
	if err != nil {
		return nil, err
	}
	return ent.prog, nil
}

// VerifyCompiled dry-runs the compiled-artifact admission path for
// principal without storing anything: decode, bytecode verification,
// per-principal admission policy. Bundle staging uses it so a bad
// artifact is refused at stage time, long before activation tries to
// run it.
func (p *Process) VerifyCompiled(principal, name string, blob []byte) error {
	_, err := p.prepareCompiled(principal, name, blob)
	return err
}

// prepareCompiled decodes, verifies and admits one artifact without
// storing it, with the same rejection accounting as prepare.
func (p *Process) prepareCompiled(principal, name string, blob []byte) (*DP, error) {
	start := p.clock.Now()
	if err := p.admitSize(principal, name, int64(len(blob))); err != nil {
		p.rejected(name, err, p.clock.Now()-start)
		return nil, err
	}
	cp, err := dpl.DecodeProgram(blob)
	if err != nil {
		err = fmt.Errorf("elastic: decoding compiled program: %w", err)
		p.rejected(name, err, p.clock.Now()-start)
		return nil, err
	}
	ent, err := p.admitCompiled(principal, cp, blob)
	if err != nil {
		p.rejected(name, err, p.clock.Now()-start)
		return nil, err
	}
	dp := &DP{
		Name:       name,
		Owner:      principal,
		Lang:       LangCompiled,
		Object:     ent.obj,
		Program:    ent.prog,
		StepBudget: ent.rep.SuggestedBudget(p.cfg.MaxStepsPerDPI),
		StoredAt:   p.clock.Now(),
		Effects:    ent.rep.Effects,
		Cost:       ent.rep.Cost,
		analysisNS: p.clock.Now() - start,
		size:       int64(len(blob)),
	}
	return dp, nil
}

// admitCompiled resolves cp, decoded from blob, through the program
// cache (a repeat delivery of the same bytes needs no second
// verification) or verifies it from scratch, then applies the
// per-principal admission policy. Received artifacts are cached under
// the hash of their own encoding, never under the SourceHash they
// claim: that claim is unverifiable, and a source lookup must not find
// someone else's object code.
func (p *Process) admitCompiled(principal string, cp *dpl.CompiledProgram, blob []byte) (progEntry, error) {
	if cp.Object == nil {
		return progEntry{}, fmt.Errorf("elastic: compiled program carries no object code")
	}
	key := progKey{hash: sha256.Sum256(blob), version: cp.Version, received: true}
	if ent, ok := p.progCache.get(key); ok {
		if err := p.admit(principal, ent.rep); err != nil {
			return progEntry{}, err
		}
		return ent, nil
	}
	p.met.verifications.Inc()
	res := verify.Verify(cp, p.bindings)
	if !res.OK() {
		return progEntry{}, &RejectError{Diags: res.Diags}
	}
	// Capability and cost are decided on what this node proved (no
	// positions: there is no source).
	rep := &analysis.Report{Effects: res.Recovered, Cost: res.Cost}
	if err := p.admit(principal, rep); err != nil {
		return progEntry{}, err
	}
	ent := progEntry{obj: cp.Object, rep: rep, prog: cp}
	p.progCache.put(key, ent)
	return ent, nil
}
