package elastic

import (
	"context"
	"fmt"
)

// Evaluate implements the *remote evaluation* model the dissertation
// compares against ("a restricted form of elasticity that combines
// delegation and invocation into one single action", as in REV, SunDew
// and NCL): translate source, run entry(args...) once, return the
// result, and leave nothing behind — neither a stored DP nor a live
// DPI record.
//
// It is intentionally built on the same Translator and VM as full
// delegation, so experiments can compare the two models with everything
// else held equal. ACL-wise it requires both delegate and instantiate
// rights, since it is both.
func (p *Process) Evaluate(ctx context.Context, principal, lang, source, entry string, args ...any) (any, error) {
	if !p.cfg.ACL.Allow(principal, RightDelegate) || !p.cfg.ACL.Allow(principal, RightInstantiate) {
		return nil, fmt.Errorf("%w: %s may not evaluate", ErrDenied, principal)
	}
	obj, rep, err := p.translator.TranslateAnalyzed(lang, source)
	if err == nil {
		// Remote evaluation admits under the same static rules as full
		// delegation: same capability grants, same cost ceiling.
		err = p.admit(principal, rep)
	}
	if err != nil {
		p.met.rejections.Inc()
		return nil, err
	}
	// The ephemeral DP never touches the Repository: concurrent
	// evaluations by the same principal must not observe each other's
	// programs, and nothing may persist.
	dp := &DP{
		Name:       fmt.Sprintf("<eval:%s>", principal),
		Owner:      principal,
		Lang:       lang,
		Source:     source,
		Object:     obj,
		StoredAt:   p.clock.Now(),
		Effects:    rep.Effects,
		Cost:       rep.Cost,
		StepBudget: rep.SuggestedBudget(p.cfg.MaxStepsPerDPI),
	}
	d, err := p.startInstance(dp, InstanceSpec{DP: dp.Name, Entry: entry, Args: args, Principal: principal}, nil)
	if err != nil {
		return nil, err
	}
	defer p.Remove(d.ID)
	v, err := d.Wait(ctx)
	if err != nil {
		if ctx.Err() != nil {
			d.Terminate()
			<-d.Done()
		}
		return nil, err
	}
	return v, nil
}
