package elastic

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mbd/internal/dpl"
)

// mibBindings returns a binding table with the MIB primitives stubbed,
// so effect inference has something to infer against.
func mibBindings() *dpl.Bindings {
	b := dpl.Std()
	stub := func(_ *dpl.Env, _ []dpl.Value) (dpl.Value, error) { return dpl.Value{}, nil }
	b.Register("mibGet", 1, stub)
	b.Register("mibSet", 2, stub)
	return b
}

func grantAll(a *ACL, principal string) {
	a.Grant(principal, RightDelegate, RightInstantiate, RightControl, RightSend, RightQuery, RightDelete)
}

func TestDelegateRejectsEffectsExceedingCapability(t *testing.T) {
	acl := NewACL()
	grantAll(acl, "noc")
	// noc may only read the system subtree; no writes at all.
	acl.Limit("noc", Capability{
		Reads:  []string{"1.3.6.1.2.1.1"},
		Writes: []string{},
	})
	p := NewProcess(Config{Bindings: mibBindings(), ACL: acl})
	defer p.Stop()

	// Reads outside the grant and writes anywhere must both reject.
	err := p.Delegate("noc", "snoop", "dpl", `
func main() {
	var v = mibGet("1.3.6.1.2.1.2.2.1.10.1");
	mibSet("1.3.6.1.2.1.1.5.0", v);
}`)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	var denied int
	for _, d := range rej.Diags {
		if d.Code == dpl.CodeEffectDenied {
			denied++
			if d.Sev != dpl.SevError {
				t.Fatalf("DPL007 severity = %v", d.Sev)
			}
		}
	}
	if denied != 2 {
		t.Fatalf("DPL007 count = %d, diags = %v", denied, rej.Diags)
	}
	if p.Repository().Len() != 0 {
		t.Fatal("rejected DP was stored")
	}
	if n := p.met.rejections.Value(); n != 1 {
		t.Fatalf("rejections = %d", n)
	}

	// The same program inside the grant is admitted.
	if err := p.Delegate("noc", "ok", "dpl", `
func main() { return mibGet("1.3.6.1.2.1.1.3.0"); }`); err != nil {
		t.Fatalf("in-grant delegate: %v", err)
	}
	dp, _ := p.Repository().Lookup("ok")
	if got := dp.Effects.ReadPrefixes(); len(got) != 1 || got[0] != "1.3.6.1.2.1.1.3.0" {
		t.Fatalf("stored effects = %v", dp.Effects)
	}
}

func TestDelegateRejectsDynamicOIDUnderCapability(t *testing.T) {
	acl := NewACL()
	grantAll(acl, "noc")
	acl.Limit("noc", Capability{Reads: []string{"1.3.6.1.2.1.1"}})
	p := NewProcess(Config{Bindings: mibBindings(), ACL: acl})
	defer p.Stop()

	// A dynamic OID widens to the whole MIB, which no prefix grant
	// covers — the wildcard effect must be refused.
	err := p.Delegate("noc", "dyn", "dpl", `
func main(oid) { return mibGet(oid); }`)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	found := false
	for _, d := range rej.Diags {
		if d.Code == dpl.CodeEffectDenied && strings.Contains(d.Msg, "whole MIB") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diags = %v", rej.Diags)
	}
}

func TestDelegateHostCapability(t *testing.T) {
	acl := NewACL()
	grantAll(acl, "ops")
	acl.Limit("ops", Capability{Hosts: []string{"len", "str", "mibGet"}})
	p := NewProcess(Config{Bindings: mibBindings(), ACL: acl})
	defer p.Stop()

	err := p.Delegate("ops", "writer", "dpl", `
func main() { mibSet("1.3.6.1.2.1.1.5.0", "x"); }`)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	if err := p.Delegate("ops", "reader", "dpl", `
func main() { return str(mibGet("1.3.6.1.2.1.1.3.0")); }`); err != nil {
		t.Fatalf("allowed hosts rejected: %v", err)
	}
}

func TestDelegateCostCeiling(t *testing.T) {
	p := NewProcess(Config{CostCeiling: 100})
	defer p.Stop()

	// A 10k-trip loop far exceeds a ceiling of 100.
	err := p.Delegate("adm", "hot", "dpl", `
func main() {
	var s = 0;
	for (var i = 0; i < 10000; i += 1) { s += i; }
	return s;
}`)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	if len(rej.Diags) == 0 || rej.Diags[len(rej.Diags)-1].Code != dpl.CodeCostCeiling {
		t.Fatalf("diags = %v", rej.Diags)
	}

	// Unbounded cost is also over any finite ceiling.
	err = p.Delegate("adm", "loop", "dpl", `
func main(n) { while (n > 0) { n -= 1; } }`)
	if !errors.As(err, &rej) {
		t.Fatalf("unbounded err = %v, want *RejectError", err)
	}

	// A trivial program clears the ceiling.
	if err := p.Delegate("adm", "tiny", "dpl", `func main() { return 1 + 2; }`); err != nil {
		t.Fatalf("tiny delegate: %v", err)
	}
}

func TestStrictAdmissionUpgradesWarnings(t *testing.T) {
	src := `
func main() {
	var x;
	return x;
}`
	lax := NewProcess(Config{})
	defer lax.Stop()
	if err := lax.Delegate("adm", "warny", "dpl", src); err != nil {
		t.Fatalf("lax delegate: %v", err)
	}

	strict := NewProcess(Config{StrictAdmission: true})
	defer strict.Stop()
	err := strict.Delegate("adm", "warny", "dpl", src)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("strict err = %v, want *RejectError", err)
	}
	if rej.Diags[0].Code != dpl.CodeUseBeforeInit {
		t.Fatalf("diags = %v", rej.Diags)
	}
}

func TestEvaluateAdmission(t *testing.T) {
	acl := NewACL()
	grantAll(acl, "noc")
	acl.Limit("noc", Capability{Reads: []string{"1.3.6.1.2.1.1"}})
	p := NewProcess(Config{Bindings: mibBindings(), ACL: acl})
	defer p.Stop()

	_, err := p.Evaluate(context.Background(), "noc", "dpl",
		`func main() { return mibGet("1.3.6.1.4.1.9.2.1"); }`, "main")
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}

	v, err := p.Evaluate(context.Background(), "noc", "dpl",
		`func main() { return 40 + 2; }`, "main")
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if n, ok := v.(int64); !ok || n != 42 {
		t.Fatalf("v = %v", v)
	}
}

func TestDerivedStepBudgetStored(t *testing.T) {
	p := NewProcess(Config{MaxStepsPerDPI: 1 << 20})
	defer p.Stop()
	if err := p.Delegate("adm", "small", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	dp, _ := p.Repository().Lookup("small")
	if dp.StepBudget == 0 || dp.StepBudget >= 1<<20 {
		t.Fatalf("budget = %d, want tightened below server quota", dp.StepBudget)
	}
	if dp.Cost.Unbounded {
		t.Fatalf("cost = %v", dp.Cost)
	}

	// An unbounded resident agent keeps the server quota.
	if err := p.Delegate("adm", "resident", "dpl",
		`func main() { while (true) { sleep(1); } }`); err != nil {
		t.Fatal(err)
	}
	dp2, _ := p.Repository().Lookup("resident")
	if dp2.StepBudget != 1<<20 {
		t.Fatalf("resident budget = %d", dp2.StepBudget)
	}
}
