package elastic

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mbd/internal/dpl"
)

func newProcess(t *testing.T, cfg Config) *Process {
	t.Helper()
	p := NewProcess(cfg)
	t.Cleanup(p.Stop)
	return p
}

func TestDelegateInstantiateWait(t *testing.T) {
	p := newProcess(t, Config{})
	src := `func main(a, b) { return a * b; }`
	if err := p.Delegate("mgr", "mul", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "mul", "main", int64(6), int64(7))
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(context.Background())
	if err != nil || v != int64(42) {
		t.Fatalf("result = %v, %v", v, err)
	}
	if d.info().State != "exited" {
		t.Fatalf("state = %s", d.info().State)
	}
}

func TestTranslatorRejectionCounted(t *testing.T) {
	p := newProcess(t, Config{})
	err := p.Delegate("mgr", "evil", "dpl", `func main() { system("rm -rf /"); }`)
	if err == nil || !strings.Contains(err.Error(), "allowed host function set") {
		t.Fatalf("err = %v", err)
	}
	if p.met.rejections.Value() != 1 {
		t.Fatal("rejection not counted")
	}
	if _, ok := p.Repository().Lookup("evil"); ok {
		t.Fatal("rejected DP stored")
	}
	if err := p.Delegate("mgr", "x", "c", `int main(){}`); err == nil {
		t.Fatal("unsupported language accepted")
	}
}

func TestInstantiateUnknownDP(t *testing.T) {
	p := newProcess(t, Config{})
	if _, err := p.Instantiate("mgr", "ghost", "main"); !errors.Is(err, ErrNoSuchDP) {
		t.Fatalf("err = %v", err)
	}
}

func TestEventsFromDPI(t *testing.T) {
	p := newProcess(t, Config{})
	var mu sync.Mutex
	var events []Event
	cancel := p.Subscribe(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	defer cancel()

	src := `
func main() {
	report("healthy");
	notify("threshold crossed");
	log("debug line");
	return 7;
}`
	if err := p.Delegate("mgr", "reporter", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "reporter", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 4 {
		t.Fatalf("events = %v", events)
	}
	wantKinds := []EventKind{EventReport, EventNotify, EventLog, EventExit}
	wantPayloads := []string{"healthy", "threshold crossed", "debug line", "7"}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] || ev.Payload != wantPayloads[i] || ev.DPI != d.ID {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
}

func TestMailboxSendRecv(t *testing.T) {
	p := newProcess(t, Config{})
	src := `
func main() {
	var m1 = recv(-1);
	var m2 = recv(0);
	return m1 + "|" + str(m2);
}`
	if err := p.Delegate("mgr", "echo", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "echo", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("mgr", d.ID, "hello"); err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// recv(0) polls an empty mailbox → nil.
	if v != "hello|nil" {
		t.Fatalf("result = %v", v)
	}
}

func TestRecvTimeout(t *testing.T) {
	p := newProcess(t, Config{})
	src := `func main() { return recv(20) == nil; }`
	if err := p.Delegate("mgr", "w", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "w", "main")
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(context.Background())
	if err != nil || v != true {
		t.Fatalf("recv timeout = %v, %v", v, err)
	}
}

func TestMailboxBackpressure(t *testing.T) {
	p := newProcess(t, Config{MailboxDepth: 2})
	src := `func main() { return recv(-1); }`
	if err := p.Delegate("mgr", "slow", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "slow", "main")
	if err != nil {
		t.Fatal(err)
	}
	// The DPI consumes at most one message promptly; fill beyond depth.
	var full bool
	for i := 0; i < 10; i++ {
		if err := p.Send("mgr", d.ID, "m"); err != nil {
			if !errors.Is(err, ErrMailboxFull) {
				t.Fatalf("err = %v", err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Fatal("mailbox never filled")
	}
	if _, err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSendToUnknownDPI(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Send("mgr", "nope#1", "x"); !errors.Is(err, ErrNoSuchDPI) {
		t.Fatalf("err = %v", err)
	}
}

func TestControlSuspendResumeTerminate(t *testing.T) {
	p := newProcess(t, Config{})
	src := `func main() { while (true) { sleep(1); } }`
	if err := p.Delegate("mgr", "spin", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Control("mgr", d.ID, ActionSuspend); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.info().State == "suspended" })
	if err := p.Control("mgr", d.ID, ActionResume); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.info().State == "running" })
	if err := p.Control("mgr", d.ID, ActionTerminate); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background()); err == nil {
		t.Fatal("terminated DPI returned no error")
	}
	if d.info().State != "failed" {
		t.Fatalf("state = %s", d.info().State)
	}
	if err := p.Control("mgr", d.ID, "reboot"); err == nil {
		t.Fatal("unknown action accepted")
	}
	if err := p.Control("mgr", "ghost#9", ActionSuspend); !errors.Is(err, ErrNoSuchDPI) {
		t.Fatalf("err = %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestStepQuotaEnforced(t *testing.T) {
	p := newProcess(t, Config{MaxStepsPerDPI: 5000})
	if err := p.Delegate("mgr", "hog", "dpl", `func main() { while (true) {} }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "hog", "main")
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Wait(context.Background())
	if !errors.Is(err, dpl.ErrStepQuota) {
		t.Fatalf("err = %v, want step quota", err)
	}
}

func TestInstanceLimit(t *testing.T) {
	p := newProcess(t, Config{MaxDPIs: 2})
	if err := p.Delegate("mgr", "spin", "dpl", `func main() { recv(-1); }`); err != nil {
		t.Fatal(err)
	}
	d1, err := p.Instantiate("mgr", "spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instantiate("mgr", "spin", "main"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instantiate("mgr", "spin", "main"); !errors.Is(err, ErrTooManyDPIs) {
		t.Fatalf("err = %v", err)
	}
	// Finishing an instance frees a slot.
	if err := p.Send("mgr", d1.ID, "go"); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instantiate("mgr", "spin", "main"); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
}

func TestACLEnforcement(t *testing.T) {
	acl := NewACL()
	acl.Grant("alice", RightDelegate, RightInstantiate, RightQuery)
	acl.Grant("bob", RightQuery)
	p := newProcess(t, Config{ACL: acl})

	if err := p.Delegate("bob", "x", "dpl", `func main() {}`); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob delegated: %v", err)
	}
	if err := p.Delegate("alice", "x", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instantiate("bob", "x", "main"); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob instantiated: %v", err)
	}
	d, err := p.Instantiate("alice", "x", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Control("alice", d.ID, ActionSuspend); !errors.Is(err, ErrDenied) {
		t.Fatalf("alice controlled without right: %v", err)
	}
	if err := p.Send("alice", d.ID, "m"); !errors.Is(err, ErrDenied) {
		t.Fatalf("alice sent without right: %v", err)
	}
	if _, err := p.Query("bob", ""); err != nil {
		t.Fatalf("bob query: %v", err)
	}
	if err := p.DeleteDP("bob", "x"); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob deleted: %v", err)
	}
	acl.Revoke("bob", RightQuery)
	if _, err := p.Query("bob", ""); !errors.Is(err, ErrDenied) {
		t.Fatalf("revoke ineffective: %v", err)
	}
}

func TestQueryAndRemove(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("mgr", "a", "dpl", `func main() { return 5; }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "a", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	infos, err := p.Query("mgr", d.ID)
	if err != nil || len(infos) != 1 {
		t.Fatalf("query = %v, %v", infos, err)
	}
	if infos[0].State != "exited" || infos[0].Result != "5" || infos[0].DP != "a" {
		t.Fatalf("info = %+v", infos[0])
	}
	if _, err := p.Query("mgr", "ghost#1"); !errors.Is(err, ErrNoSuchDPI) {
		t.Fatalf("err = %v", err)
	}
	if !p.Remove(d.ID) {
		t.Fatal("remove failed")
	}
	if p.Remove(d.ID) {
		t.Fatal("double remove succeeded")
	}
}

func TestRepositoryListAndDelete(t *testing.T) {
	p := newProcess(t, Config{})
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := p.Delegate("mgr", n, "dpl", `func main() {}`); err != nil {
			t.Fatal(err)
		}
	}
	list := p.Repository().List()
	if len(list) != 3 || list[0].Name != "alpha" || list[2].Name != "zeta" {
		t.Fatalf("list = %v", list)
	}
	if err := p.DeleteDP("mgr", "mid"); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteDP("mgr", "mid"); !errors.Is(err, ErrNoSuchDP) {
		t.Fatalf("err = %v", err)
	}
	if p.Repository().Len() != 2 {
		t.Fatal("delete did not take")
	}
}

func TestDPIIDsAreUniqueAndNamed(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("mgr", "a", "dpl", `func main() { return dpiid(); }`); err != nil {
		t.Fatal(err)
	}
	d1, _ := p.Instantiate("mgr", "a", "main")
	d2, _ := p.Instantiate("mgr", "a", "main")
	if d1.ID == d2.ID {
		t.Fatal("duplicate DPI ids")
	}
	v, err := d1.Wait(context.Background())
	if err != nil || v != d1.ID {
		t.Fatalf("dpiid() = %v, want %s", v, d1.ID)
	}
}

func TestStopTerminatesEverything(t *testing.T) {
	p := NewProcess(Config{})
	if err := p.Delegate("mgr", "spin", "dpl", `func main() { while (true) { sleep(10); } }`); err != nil {
		t.Fatal(err)
	}
	var ds []*DPI
	for i := 0; i < 5; i++ {
		d, err := p.Instantiate("mgr", "spin", "main")
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	done := make(chan struct{})
	go func() {
		p.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}
	for _, d := range ds {
		if !d.Finished() {
			t.Fatal("instance survived Stop")
		}
	}
	if _, err := p.Instantiate("mgr", "spin", "main"); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-stop instantiate: %v", err)
	}
}

func TestVirtualClockSleepAndNow(t *testing.T) {
	vc := NewVirtualClock()
	p := newProcess(t, Config{Clock: vc})
	src := `
func main() {
	var t0 = now();
	sleep(5000);
	return now() - t0;
}`
	if err := p.Delegate("mgr", "timer", "dpl", src); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "timer", "main")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the DPI is blocked in sleep, then advance virtual time.
	waitFor(t, func() bool { return vc.Sleepers() == 1 })
	vc.Advance(5 * time.Second)
	v, err := d.Wait(context.Background())
	if err != nil || v != int64(5000) {
		t.Fatalf("virtual sleep = %v, %v", v, err)
	}
}

func TestVirtualClockPartialAdvance(t *testing.T) {
	vc := NewVirtualClock()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- vc.Sleep(ctx, 10*time.Millisecond) }()
	waitFor(t, func() bool { return vc.Sleepers() == 1 })
	vc.Advance(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("sleeper woke early")
	case <-time.After(10 * time.Millisecond):
	}
	vc.Advance(5 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Cancellation drops the waiter.
	cctx, cancel := context.WithCancel(ctx)
	go func() { done <- vc.Sleep(cctx, time.Hour) }()
	waitFor(t, func() bool { return vc.Sleepers() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if vc.Sleepers() != 0 {
		t.Fatal("cancelled waiter leaked")
	}
}

func TestHostServicesOutsideDPIRejected(t *testing.T) {
	// Calling an instance service through a bare VM (no DPI meta) must
	// error, not crash.
	p := newProcess(t, Config{})
	compiled, _, err := p.translator.TranslateAnalyzed("dpl", `func main() { report("x"); }`)
	if err != nil {
		t.Fatal(err)
	}
	vm := dpl.NewVM(compiled, p.bindings)
	if _, err := vm.Run(context.Background(), "main"); err == nil ||
		!strings.Contains(err.Error(), "outside a DPI") {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("mgr", "a", "dpl", `func main() { report(1); return recv(-1); }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "a", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("mgr", d.ID, "done"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := &p.met
	if m.delegations.Value() != 1 || m.instantiations.Value() != 1 || m.messagesSent.Value() != 1 || p.eventsEmitted.Load() < 2 {
		t.Fatalf("delegations %d, instantiations %d, messages %d, events %d",
			m.delegations.Value(), m.instantiations.Value(), m.messagesSent.Value(), p.eventsEmitted.Load())
	}
}
