package elastic

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLoadRepositoryAtomic: one rejected .dpl aborts the whole load
// without mutating the already-loaded repository state — no partial
// batch, and programs stored before the load survive untouched.
func TestLoadRepositoryAtomic(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("mgr", "keeper", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// "aaa" sorts before the broken file: a non-atomic load would store
	// it before hitting the rejection.
	files := map[string]string{
		"aaa.dpl":    `func main() { return 2; }`,
		"broken.dpl": `func main() { this is not dpl`,
		"zzz.dpl":    `func main() { return 3; }`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := p.LoadRepository(dir, "mgr")
	if err == nil {
		t.Fatal("broken program loaded")
	}
	if n != 0 {
		t.Fatalf("failed load reported %d programs stored", n)
	}
	names := map[string]bool{}
	for _, dp := range p.repo.List() {
		names[dp.Name] = true
	}
	if len(names) != 1 || !names["keeper"] {
		t.Fatalf("failed load mutated repository: %v", names)
	}
	// Overwrite semantics are unchanged: fixing the bad file loads all
	// three, replacing nothing it shouldn't.
	if err := os.WriteFile(filepath.Join(dir, "broken.dpl"), []byte(`func main() { return 4; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := p.LoadRepository(dir, "mgr"); err != nil || n != 3 {
		t.Fatalf("fixed load = %d, %v", n, err)
	}
}

// TestCheckpointWarmRestart: a checkpoint saved while instances run
// restores the programs and re-instantiates the always-policy ones on a
// fresh process; weaker policies stay down.
func TestCheckpointWarmRestart(t *testing.T) {
	dir := t.TempDir()
	p1 := newProcess(t, Config{})
	if err := p1.Delegate("mgr", "daemon", "dpl", `func main(tag) { recv(-1); return tag; }`); err != nil {
		t.Fatal(err)
	}
	if err := p1.Delegate("mgr", "oneshot", "dpl", `func main() { recv(-1); return 0; }`); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.InstantiateSpec("mgr", InstanceSpec{
		DP: "daemon", Entry: "main",
		Args:         []any{"cp-test"},
		Policy:       RestartAlways,
		StallTimeout: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.InstantiateSpec("mgr", InstanceSpec{DP: "oneshot", Entry: "main"}); err != nil {
		t.Fatal(err)
	}
	if err := p1.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	p2 := newProcess(t, Config{})
	dps, dpis, err := p2.LoadCheckpoint(dir, "mgr")
	if err != nil {
		t.Fatal(err)
	}
	if dps != 2 || dpis != 1 {
		t.Fatalf("restored %d programs, %d instances; want 2, 1", dps, dpis)
	}
	infos, err := p2.Query("mgr", "")
	if err != nil || len(infos) != 1 {
		t.Fatalf("query = %+v, %v", infos, err)
	}
	inf := infos[0]
	if inf.DP != "daemon" || inf.State != "running" {
		t.Fatalf("restored instance = %+v", inf)
	}
	// The restored instance carries its spec — args and policy survive
	// the round-trip.
	d, ok := p2.Lookup(inf.ID)
	if !ok {
		t.Fatal(err)
	}
	if d.spec.Policy != RestartAlways || d.spec.StallTimeout != time.Minute ||
		len(d.spec.Args) != 1 || d.spec.Args[0] != "cp-test" {
		t.Fatalf("restored spec = %+v", d.spec)
	}
}

// TestCheckpointManifestRoundTrip: arg encoding covers every scalar
// type, and an empty checkpoint clears a stale manifest.
func TestCheckpointManifestRoundTrip(t *testing.T) {
	for _, v := range []any{nil, true, false, int64(-42), 2.5, "hello"} {
		got, err := decodeArg(encodeArg(v))
		if err != nil || got != v {
			t.Fatalf("arg %#v round-tripped to %#v, %v", v, got, err)
		}
	}

	dir := t.TempDir()
	p1 := newProcess(t, Config{})
	if err := p1.Delegate("mgr", "d", "dpl", `func main() { recv(-1); }`); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.InstantiateSpec("mgr", InstanceSpec{DP: "d", Entry: "main", Policy: RestartAlways}); err != nil {
		t.Fatal(err)
	}
	if err := p1.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Terminate everything; a second checkpoint must overwrite the
	// manifest with an empty list, not leave the stale instance behind.
	p1.Stop()
	if err := p1.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	p2 := newProcess(t, Config{})
	dps, dpis, err := p2.LoadCheckpoint(dir, "mgr")
	if err != nil || dps != 1 || dpis != 0 {
		t.Fatalf("load after empty checkpoint = %d, %d, %v", dps, dpis, err)
	}

	// A repository dir without a manifest loads fine (cold start).
	cold := t.TempDir()
	if err := os.WriteFile(filepath.Join(cold, "x.dpl"), []byte(`func main() {}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p3 := newProcess(t, Config{})
	if dps, dpis, err := p3.LoadCheckpoint(cold, "mgr"); err != nil || dps != 1 || dpis != 0 {
		t.Fatalf("cold load = %d, %d, %v", dps, dpis, err)
	}
}

// TestCheckpointTenantRoundTrip: quota overrides and cumulative tenant
// bills survive a warm restart, restored instances are billed to their
// saved principal, and re-admission runs against the restored quotas.
func TestCheckpointTenantRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p1 := newProcess(t, Config{})
	p1.Tenants().SetQuota("gold", Quota{MaxLiveDPIs: 1, Weight: 5})
	if err := p1.Delegate("mgr", "daemon", "dpl", `func main() { recv(-1); return 0; }`); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.InstantiateSpec("gold", InstanceSpec{
		DP: "daemon", Entry: "main", Policy: RestartAlways,
	}); err != nil {
		t.Fatal(err)
	}
	// A parked daemon bills no full quantum; stamp the ledger directly
	// so the cumulative-bill round-trip is observable.
	gold, ok := p1.Tenants().Lookup("gold")
	if !ok {
		t.Fatal("gold tenant not materialized")
	}
	gold.stepsTotal.Add(12345)
	gold.eventsTotal.Add(67)
	if err := p1.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	p2 := newProcess(t, Config{})
	dps, dpis, err := p2.LoadCheckpoint(dir, "mgr")
	if err != nil {
		t.Fatal(err)
	}
	if dps != 1 || dpis != 1 {
		t.Fatalf("restored %d programs, %d instances; want 1, 1", dps, dpis)
	}
	st, _ := tenantStatus(p2.Tenants(), "gold")
	if !st.Override || st.Quota.MaxLiveDPIs != 1 || st.Quota.Weight != 5 {
		t.Fatalf("restored quota = %+v (override %v)", st.Quota, st.Override)
	}
	if st.Principal != "gold" || st.LiveDPIs != 1 {
		t.Fatalf("restored instance not billed to gold: %+v", st)
	}
	if st.Steps < 12345 || st.Events < 67 {
		t.Fatalf("cumulative bill lost: %+v", st)
	}
	// Restored admission already consumed gold's single slot under the
	// restored override.
	_, err = p2.Instantiate("gold", "daemon", "main")
	if !hasCode(err, CodeQuotaDPIs) {
		t.Fatalf("over-quota instantiate after restore: %v (codes %v)", err, rejectCodes(err))
	}
}

// restartedRepo checkpoints p into dir and returns the programs a fresh
// process restores from it, by name.
func restartedRepo(t *testing.T, p *Process, dir string) map[string]*DP {
	t.Helper()
	if err := p.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	fresh := newProcess(t, Config{})
	if _, _, err := fresh.LoadCheckpoint(dir, "mgr"); err != nil {
		t.Fatal(err)
	}
	out := map[string]*DP{}
	for _, dp := range fresh.repo.List() {
		out[dp.Name] = dp
	}
	return out
}

// TestCheckpointForgetsDeletedProgram: a program deleted after one
// checkpoint does not come back from the next.
func TestCheckpointForgetsDeletedProgram(t *testing.T) {
	dir := t.TempDir()
	p := newProcess(t, Config{})
	for _, name := range []string{"keep", "gone"} {
		if err := p.Delegate("mgr", name, "dpl", `func main() { return 1; }`); err != nil {
			t.Fatal(err)
		}
	}
	if got := restartedRepo(t, p, dir); len(got) != 2 {
		t.Fatalf("first restart restored %d programs, want 2", len(got))
	}
	if err := p.DeleteDP("mgr", "gone"); err != nil {
		t.Fatal(err)
	}
	if got := restartedRepo(t, p, dir); len(got) != 1 || got["keep"] == nil {
		t.Fatalf("restart after delete restored %v, want only keep", got)
	}
}

// TestCheckpointKeepsReplacedForm: a name delegated as bytecode and
// then re-delegated as source restarts as the source, not as the older
// artifact left beside it.
func TestCheckpointKeepsReplacedForm(t *testing.T) {
	dir := t.TempDir()
	p := newProcess(t, Config{})
	cp, err := p.CompileProgram("dpl", `func main() { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DelegateCompiled("mgr", "probe", blob); err != nil {
		t.Fatal(err)
	}
	if got := restartedRepo(t, p, dir); got["probe"] == nil || got["probe"].Lang != LangCompiled {
		t.Fatalf("first restart restored %v, want probe as bytecode", got)
	}
	const src = `func main() { return 2; }`
	if err := p.Delegate("mgr", "probe", "dpl", src); err != nil {
		t.Fatal(err)
	}
	if got := restartedRepo(t, p, dir); len(got) != 1 || got["probe"] == nil || got["probe"].Source != src {
		t.Fatalf("restart after re-delegation restored %+v, want probe as its source", got["probe"])
	}
}
