package elastic

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// rejectCode extracts the diagnostic codes of a RejectError, or nil.
func rejectCodes(err error) []string {
	var rej *RejectError
	if !errors.As(err, &rej) {
		return nil
	}
	codes := make([]string, 0, len(rej.Diags))
	for _, d := range rej.Diags {
		codes = append(codes, d.Code)
	}
	return codes
}

func hasCode(err error, code string) bool {
	for _, c := range rejectCodes(err) {
		if c == code {
			return true
		}
	}
	return false
}

func TestParseQuota(t *testing.T) {
	q, err := ParseQuota("dpis=8,steps=200000,events=50,repo=65536,reqs=100,weight=4")
	if err != nil {
		t.Fatal(err)
	}
	want := Quota{MaxLiveDPIs: 8, StepsPerSec: 200000, EventsPerSec: 50,
		RepositoryBytes: 65536, RequestsPerSec: 100, Weight: 4}
	if q != want {
		t.Fatalf("q = %+v, want %+v", q, want)
	}
	if q, err := ParseQuota(""); err != nil || q != (Quota{}) {
		t.Fatalf("empty spec: %+v, %v", q, err)
	}
	if q, err := ParseQuota(" steps=10 , weight=2 "); err != nil || q.StepsPerSec != 10 || q.Weight != 2 {
		t.Fatalf("spaced spec: %+v, %v", q, err)
	}
	for _, bad := range []string{"steps", "steps=x", "steps=-1", "bogus=1"} {
		if _, err := ParseQuota(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestQuotaLiveDPIRejection(t *testing.T) {
	p := newProcess(t, Config{Quota: Quota{MaxLiveDPIs: 1}})
	if err := p.Delegate("mgr", "spin", "dpl", `func main() { while (true) { sleep(5); } }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Instantiate("mgr", "spin", "main")
	if !hasCode(err, CodeQuotaDPIs) {
		t.Fatalf("second instantiate: %v (codes %v), want QUO001", err, rejectCodes(err))
	}
	// A different principal has its own ledger.
	d2, err := p.Instantiate("other", "spin", "main")
	if err != nil {
		t.Fatalf("other principal rejected: %v", err)
	}
	d2.Terminate()
	// The slot frees when the instance exits.
	d.Terminate()
	<-d.Done()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d3, err := p.Instantiate("mgr", "spin", "main")
		if err == nil {
			d3.Terminate()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if st := p.Tenants().List(); len(st) == 0 || st[0].Rejections == 0 {
		t.Fatalf("rejections not billed: %+v", st)
	}
}

func TestQuotaRepoBytesRejection(t *testing.T) {
	p := newProcess(t, Config{Quota: Quota{RepositoryBytes: 64}})
	small := `func main() { return 1; }`
	if err := p.Delegate("mgr", "small", "dpl", small); err != nil {
		t.Fatal(err)
	}
	big := `func main() { return 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10; }`
	err := p.Delegate("mgr", "big", "dpl", big)
	if !hasCode(err, CodeQuotaRepoBytes) {
		t.Fatalf("big delegate: %v (codes %v), want QUO002", err, rejectCodes(err))
	}
	// Replacing one's own program bills only the delta.
	if err := p.Delegate("mgr", "small", "dpl", `func main() { return 2; }`); err != nil {
		t.Fatalf("same-size replace rejected: %v", err)
	}
	// Deleting frees the bytes.
	if err := p.DeleteDP("mgr", "small"); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate("mgr", "big", "dpl", big); err != nil {
		t.Fatalf("delegate after delete: %v", err)
	}
}

// TestQuotaRefusesBeforeWork: a delegation over its principal's
// repository quota is refused on its size, before any of it is
// translated or decoded, and the refusal is accounted once. A 269 KB
// string-literal chain costs its translation far more than its bytes;
// checked after the translation, its refusal came only once the source
// analysis had run.
func TestQuotaRefusesBeforeWork(t *testing.T) {
	p := newProcess(t, Config{Quota: Quota{RepositoryBytes: 10 << 10}})
	var b strings.Builder
	b.WriteString(`func main() { return "1.3.6.1"`)
	for b.Len() < 269<<10 {
		b.WriteString(` + ".1"`)
	}
	b.WriteString("; }")
	err := p.Delegate("mgr", "chain", "dpl", b.String())
	if !hasCode(err, CodeQuotaRepoBytes) {
		t.Fatalf("269 KB delegate: %v (codes %v), want QUO002", err, rejectCodes(err))
	}
	if n := p.met.sourceAnalyses.Value(); n != 0 {
		t.Errorf("the refused source was analysed %d times before its refusal", n)
	}
	if n := p.met.rejections.Value(); n != 1 {
		t.Errorf("one refusal counted as %d rejections", n)
	}

	// An artifact over the quota is refused before it is decoded: bytes
	// that do not decode at all are refused on their size.
	p = newProcess(t, Config{Quota: Quota{RepositoryBytes: 64}})
	err = p.DelegateCompiled("mgr", "blob", make([]byte, 65))
	if !hasCode(err, CodeQuotaRepoBytes) {
		t.Fatalf("65-byte artifact: %v (codes %v), want QUO002", err, rejectCodes(err))
	}
	if n := p.met.rejections.Value(); n != 1 {
		t.Errorf("one refusal counted as %d rejections", n)
	}
}

func TestRepositoryCeilingWithoutQuotas(t *testing.T) {
	// The global byte ceiling holds even with per-tenant quotas off.
	p := newProcess(t, Config{MaxRepositoryBytes: 48})
	err := p.Delegate("mgr", "big", "dpl", `func main() { return 1 + 2 + 3 + 4 + 5 + 6 + 7; }`)
	if !errors.Is(err, ErrRepositoryFull) {
		t.Fatalf("err = %v, want ErrRepositoryFull", err)
	}
	if err := p.Delegate("mgr", "ok", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatalf("small delegate: %v", err)
	}
	if got, _ := tenantStatus(p.Tenants(), "mgr"); got.RepoBytes != int64(len(`func main() { return 1; }`)) {
		t.Fatalf("repo bytes = %d", got.RepoBytes)
	}
	if p.met.repoFull.Value() == 0 {
		t.Fatal("repo-full rejection not counted")
	}
}

func TestStepRateEscalationTerminates(t *testing.T) {
	p := newProcess(t, Config{
		Quota:               Quota{StepsPerSec: 1000},
		ThrottleGrace:       2 * time.Millisecond,
		MaxQuotaSuspensions: 1,
		QuotaBlockPenalty:   time.Hour,
	})
	if err := p.Delegate("mgr", "hog", "dpl", `func main() { while (true) {} }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "hog", "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = d.Wait(ctx)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("exit err = %v, want QuotaError", err)
	}
	if qe.Principal != "mgr" || qe.Code != CodeQuotaStepRate || qe.Axis != "steps" {
		t.Fatalf("quota error = %+v", qe)
	}
	// The tenant serves an admission penalty, coded with the violated
	// axis.
	_, err = p.Instantiate("mgr", "hog", "main")
	if !hasCode(err, CodeQuotaStepRate) {
		t.Fatalf("blocked instantiate: %v (codes %v), want QUO003", err, rejectCodes(err))
	}
	st := p.Tenants().List()
	if len(st) != 1 || st[0].Suspensions == 0 || st[0].Terminations != 1 || st[0].Blocked != CodeQuotaStepRate {
		t.Fatalf("tenant status = %+v", st)
	}
	if kills, susp := p.met.quotaKills.Value(), p.met.quotaSuspensions.Value(); kills != 1 || susp == 0 {
		t.Fatalf("quota kills = %d, suspensions = %d", kills, susp)
	}
}

func TestEventRateThrottles(t *testing.T) {
	// EventsPerSec low, burst floor 16: the 17th emission must pause.
	// Grace is generous so the ladder stays in throttle, never kill.
	p := newProcess(t, Config{
		Quota:         Quota{EventsPerSec: 1},
		ThrottleGrace: time.Hour,
	})
	src := `
func main(n) {
	var i = 0;
	while (i < n) {
		report(i);
		i = i + 1;
	}
	return i;
}`
	if err := p.Delegate("mgr", "chatty", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "chatty", "main", int64(17))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Tenants().List()[0].Throttles == 0 {
		if time.Now().After(deadline) {
			t.Fatal("emission never throttled")
		}
		time.Sleep(time.Millisecond)
	}
	if d.Finished() {
		t.Fatal("instance finished despite event debt")
	}
	d.Terminate()
	<-d.Done()
}

func TestTenantStatusJSON(t *testing.T) {
	p := newProcess(t, Config{Quota: Quota{Weight: 2}})
	p.Tenants().SetQuota("gold", Quota{MaxLiveDPIs: 9, Weight: 8})
	doc, err := p.TenantStatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"gold"`, `"max_live_dpis": 9`, `"default_quota"`, `"weight": 2`} {
		if !strings.Contains(string(doc), want) {
			t.Fatalf("status doc missing %s:\n%s", want, doc)
		}
	}
	if st, _ := tenantStatus(p.Tenants(), "gold"); !st.Override || st.Quota.MaxLiveDPIs != 9 {
		t.Fatalf("gold = %+v, want a 9-DPI override", st)
	}
	if _, ok := tenantStatus(p.Tenants(), "stranger"); ok || p.Tenants().Weight("stranger") != 2 {
		t.Fatal("an unknown principal must get the default weight without a ledger")
	}
}

// tenantStatus returns principal's row of ts.List().
func tenantStatus(ts *Tenants, principal string) (TenantStatus, bool) {
	for _, st := range ts.List() {
		if st.Principal == principal {
			return st, true
		}
	}
	return TenantStatus{}, false
}

func TestTenantGateWeights(t *testing.T) {
	p := newProcess(t, Config{})
	ts := p.Tenants()
	ts.SetQuota("heavy", Quota{Weight: 8})
	if w := ts.Weight("heavy"); w != 8 {
		t.Fatalf("Weight(heavy) = %d", w)
	}
	if w := ts.Weight("unknown"); w != 1 {
		t.Fatalf("Weight(unknown) = %d", w)
	}
	// No live DPIs: max active weight floors at the default.
	if w := ts.MaxActiveWeight(); w != 1 {
		t.Fatalf("MaxActiveWeight = %d", w)
	}
	if err := p.Delegate("heavy", "spin", "dpl", `func main() { while (true) { sleep(5); } }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("heavy", "spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	if w := ts.MaxActiveWeight(); w != 8 {
		t.Fatalf("MaxActiveWeight with live heavy = %d", w)
	}
	d.Terminate()
}

func TestRequestRateGate(t *testing.T) {
	p := newProcess(t, Config{Quota: Quota{RequestsPerSec: 1}})
	ts := p.Tenants()
	// Burst floor is 8: the ninth immediate request sheds.
	var err error
	for i := 0; i < 9; i++ {
		err = ts.AdmitRequest("mgr")
	}
	if !hasCode(err, CodeQuotaRequestRate) {
		t.Fatalf("ninth request: %v (codes %v), want QUO005", err, rejectCodes(err))
	}
	if err := ts.AdmitRequest("idle"); err != nil {
		t.Fatalf("other principal shed: %v", err)
	}
}
