package elastic

import (
	"fmt"
	"strings"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// Delegation-time admission. Beyond the Translator's syntactic rules,
// the process verifies each DP's statically inferred behavior — the
// host bindings and MIB OID regions it can reach and its estimated
// instruction cost — against the delegating principal's capability and
// the server's cost ceiling, before the program is ever stored or run.

// RejectError reports a DP refused at admission, carrying the full set
// of analyzer diagnostics (the analyzer's own findings plus any
// capability or cost violations) so callers — and, through the RDS
// protocol, remote clients — can surface structured reasons.
type RejectError struct {
	Diags []dpl.Diagnostic
}

// Error summarizes the rejection with its first error-severity
// diagnostic and the total count.
func (e *RejectError) Error() string {
	errs, warns := dpl.Counts(e.Diags)
	head := "program rejected at admission"
	for _, d := range e.Diags {
		if d.Sev == dpl.SevError {
			head = d.String()
			break
		}
	}
	if head == "program rejected at admission" && len(e.Diags) > 0 {
		head = e.Diags[0].String()
	}
	return fmt.Sprintf("elastic: %s (%d errors, %d warnings)", head, errs, warns)
}

// admit decides whether principal's analyzed program may be accepted.
// It returns a *RejectError carrying every diagnostic when the program
// must be refused: always on error-severity findings (capability or
// cost violations, which admit itself appends), and on any finding at
// all under StrictAdmission.
func (p *Process) admit(principal string, rep *analysis.Report) error {
	diags := append([]dpl.Diagnostic(nil), rep.Diags...)

	cap, limited := p.cfg.ACL.CapabilityFor(principal)
	if limited {
		diags = append(diags, capabilityDiags(cap, &rep.Effects)...)
	}

	// The server ceiling and the principal's cap compose: the tighter
	// one governs.
	ceiling := p.cfg.CostCeiling
	if limited && cap.MaxCost > 0 && (ceiling == 0 || cap.MaxCost < ceiling) {
		ceiling = cap.MaxCost
	}
	if ceiling > 0 {
		if rep.Cost.Unbounded {
			diags = append(diags, dpl.Diagnostic{
				Code: dpl.CodeCostCeiling,
				Sev:  dpl.SevError,
				Pos:  rep.Cost.Pos,
				Msg:  fmt.Sprintf("program cost is unbounded but a cost ceiling of %d is in force", ceiling),
			})
		} else if rep.Cost.Steps > ceiling {
			diags = append(diags, dpl.Diagnostic{
				Code: dpl.CodeCostCeiling,
				Sev:  dpl.SevError,
				Pos:  rep.Cost.Pos,
				Msg:  fmt.Sprintf("estimated cost %d exceeds ceiling %d", rep.Cost.Steps, ceiling),
			})
		}
	}

	if dpl.HasErrors(diags) || (p.cfg.StrictAdmission && len(diags) > 0) {
		dpl.SortDiags(diags)
		return &RejectError{Diags: diags}
	}
	return nil
}

// capabilityDiags compares a program's inferred effects against a
// principal's capability, producing one DPL007 error per violation.
func capabilityDiags(c Capability, e *analysis.Effects) []dpl.Diagnostic {
	var out []dpl.Diagnostic
	if c.Hosts != nil {
		allowed := make(map[string]bool, len(c.Hosts))
		for _, h := range c.Hosts {
			allowed[h] = true
		}
		for _, h := range e.Hosts {
			if !allowed[h.Name] {
				out = append(out, dpl.Diagnostic{
					Code: dpl.CodeEffectDenied,
					Sev:  dpl.SevError,
					Pos:  h.Pos,
					Msg:  fmt.Sprintf("call to %s exceeds the principal's capability (allowed hosts: %s)", h.Name, listOrNone(c.Hosts)),
				})
			}
		}
	}
	out = append(out, oidViolations(c.Reads, e.Reads, "read")...)
	out = append(out, oidViolations(c.Writes, e.Writes, "write")...)
	return out
}

// oidViolations checks every effect prefix against the allowed grant
// list (nil = unrestricted).
func oidViolations(allowed []string, effects []analysis.Effect, verb string) []dpl.Diagnostic {
	if allowed == nil {
		return nil
	}
	var out []dpl.Diagnostic
	for _, ef := range effects {
		covered := false
		for _, a := range allowed {
			if analysis.OIDCovers(a, ef.Name) {
				covered = true
				break
			}
		}
		if !covered {
			region := ef.Name
			if region == analysis.Wildcard {
				region = "the whole MIB"
			}
			out = append(out, dpl.Diagnostic{
				Code: dpl.CodeEffectDenied,
				Sev:  dpl.SevError,
				Pos:  ef.Pos,
				Msg:  fmt.Sprintf("MIB %s of %s exceeds the principal's capability (allowed: %s)", verb, region, listOrNone(allowed)),
			})
		}
	}
	return out
}

func listOrNone(xs []string) string {
	if len(xs) == 0 {
		return "none"
	}
	return strings.Join(xs, ", ")
}
