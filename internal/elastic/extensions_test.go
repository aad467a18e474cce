package elastic

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- remote evaluation (Evaluate) -------------------------------------------

func TestEvaluateOneShot(t *testing.T) {
	p := newProcess(t, Config{})
	v, err := p.Evaluate(context.Background(), "mgr", "dpl",
		`func main(a, b) { return a * b + 1; }`, "main", int64(6), int64(7))
	if err != nil || v != int64(43) {
		t.Fatalf("Evaluate = %v, %v", v, err)
	}
	// Nothing persists: no DP, no DPI record.
	if p.Repository().Len() != 0 {
		t.Fatal("Evaluate left a DP behind")
	}
	infos, err := p.Query("mgr", "")
	if err != nil || len(infos) != 0 {
		t.Fatalf("Evaluate left instances behind: %v", infos)
	}
}

func TestEvaluateTranslatorStillApplies(t *testing.T) {
	p := newProcess(t, Config{})
	_, err := p.Evaluate(context.Background(), "mgr", "dpl",
		`func main() { rm("-rf"); }`, "main")
	if err == nil || !strings.Contains(err.Error(), "allowed host function set") {
		t.Fatalf("err = %v", err)
	}
	if p.met.rejections.Value() != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestEvaluateACL(t *testing.T) {
	acl := NewACL()
	acl.Grant("half", RightDelegate) // missing instantiate
	p := newProcess(t, Config{ACL: acl})
	if _, err := p.Evaluate(context.Background(), "half", "dpl", `func main() {}`, "main"); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestEvaluateCancellation(t *testing.T) {
	p := newProcess(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Evaluate(ctx, "mgr", "dpl", `func main() { recv(-1); }`, "main")
	if err == nil {
		t.Fatal("blocked eval returned nil error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation not prompt")
	}
	// The runaway instance was terminated and cleaned up.
	waitFor(t, func() bool {
		infos, _ := p.Query("mgr", "")
		return len(infos) == 0
	})
}

// --- DPI-to-DPI messaging (sendto) -------------------------------------------

func TestSendtoBetweenDPIs(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("mgr", "rx", "dpl", `func main() { return "heard: " + recv(-1); }`); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate("mgr", "tx", "dpl", `func main(target) { return sendto(target, "peer ping"); }`); err != nil {
		t.Fatal(err)
	}
	receiver, err := p.Instantiate("mgr", "rx", "main")
	if err != nil {
		t.Fatal(err)
	}
	sender, err := p.Instantiate("mgr", "tx", "main", receiver.ID)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := sender.Wait(context.Background())
	if err != nil || sv != true {
		t.Fatalf("sendto = %v, %v", sv, err)
	}
	rv, err := receiver.Wait(context.Background())
	if err != nil || rv != "heard: peer ping" {
		t.Fatalf("receiver = %v, %v", rv, err)
	}
	if p.met.messagesSent.Value() != 1 {
		t.Fatal("sendto not accounted")
	}
}

func TestSendtoMissingOrFinishedTarget(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("mgr", "probe", "dpl", `
func main(target) { return sendto(target, "x"); }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "probe", "main", "ghost#7")
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(context.Background())
	if err != nil || v != false {
		t.Fatalf("sendto(ghost) = %v, %v", v, err)
	}
	// Finished target also reads false.
	if err := p.Delegate("mgr", "noop", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	fin, err := p.Instantiate("mgr", "noop", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fin.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	d2, err := p.Instantiate("mgr", "probe", "main", fin.ID)
	if err != nil {
		t.Fatal(err)
	}
	v, err = d2.Wait(context.Background())
	if err != nil || v != false {
		t.Fatalf("sendto(finished) = %v, %v", v, err)
	}
}

// --- repository persistence ---------------------------------------------------

func TestRepositorySaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := newProcess(t, Config{})
	srcs := map[string]string{
		"alpha": `func main() { return 1; }`,
		"beta":  `func main(x) { return x + 1; }`,
	}
	for name, src := range srcs {
		if err := p.Delegate("mgr", name, "dpl", src); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SaveRepository(dir); err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		b, err := os.ReadFile(filepath.Join(dir, name+".dpl"))
		if err != nil || string(b) != src {
			t.Fatalf("saved %s = %q, %v", name, b, err)
		}
	}

	// A fresh process loads and can instantiate them.
	q := newProcess(t, Config{})
	n, err := q.LoadRepository(dir, "restored")
	if err != nil || n != 2 {
		t.Fatalf("load = %d, %v", n, err)
	}
	d, err := q.Instantiate("mgr", "beta", "main", int64(41))
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(context.Background())
	if err != nil || v != int64(42) {
		t.Fatalf("restored beta = %v, %v", v, err)
	}
	if dp, ok := q.Repository().Lookup("alpha"); !ok || dp.Owner != "restored" {
		t.Fatal("ownership not attributed on load")
	}
}

func TestLoadRepositoryRetranslates(t *testing.T) {
	dir := t.TempDir()
	// A stored program calling a function this process does not allow
	// must be rejected at load time.
	if err := os.WriteFile(filepath.Join(dir, "stale.dpl"),
		[]byte(`func main() { forbidden(); }`), 0o644); err != nil {
		t.Fatal(err)
	}
	p := newProcess(t, Config{})
	if _, err := p.LoadRepository(dir, "restored"); err == nil ||
		!strings.Contains(err.Error(), "allowed host function set") {
		t.Fatalf("err = %v", err)
	}
}

func TestSaveRepositoryRejectsPathyNames(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("mgr", "../escape", "dpl", `func main() {}`); err != nil {
		t.Fatal(err)
	}
	if err := p.SaveRepository(t.TempDir()); err == nil {
		t.Fatal("path-traversal name saved")
	}
}

func TestLoadRepositoryIgnoresOtherFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.dpl"), 0o755); err != nil {
		t.Fatal(err)
	}
	p := newProcess(t, Config{})
	n, err := p.LoadRepository(dir, "x")
	if err != nil || n != 0 {
		t.Fatalf("load = %d, %v", n, err)
	}
	if _, err := p.LoadRepository(filepath.Join(dir, "missing"), "x"); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestEvaluateConcurrentSamePrincipal(t *testing.T) {
	// Two overlapping evaluations by one principal must each run their
	// own program — the ephemeral DP may not be shared or overwritten.
	p := newProcess(t, Config{})
	const n = 16
	results := make(chan string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			v, err := p.Evaluate(context.Background(), "mgr", "dpl",
				fmt.Sprintf(`func main() { recv(50); return "task-%d"; }`, i), "main")
			if err != nil {
				errs <- err
				return
			}
			results <- v.(string)
		}()
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case r := <-results:
			if seen[r] {
				t.Fatalf("result %q returned twice — evaluations shared a program", r)
			}
			seen[r] = true
		case <-time.After(30 * time.Second):
			t.Fatal("evaluations hung")
		}
	}
}
