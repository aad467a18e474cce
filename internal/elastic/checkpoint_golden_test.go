package elastic

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mbd/internal/dpl"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint_args.golden from this tree")

// TestCheckpointArgsGolden pins the checkpoint manifest of an instance
// holding one argument of every scalar kind, and what the instance sees
// after a warm restart reloads them.
func TestCheckpointArgsGolden(t *testing.T) {
	dir := t.TempDir()
	p1 := newProcess(t, Config{})
	const src = `func main(a, b, c, d, e) { recv(-1); return sprintf("%v|%v|%v|%v|%v", a, b, c, d, e); }`
	if err := p1.Delegate("mgr", "args", "dpl", src); err != nil {
		t.Fatal(err)
	}
	args := []any{int64(-9007199254740993), 0.1, "s:héllo 1", true, nil}
	if _, err := p1.InstantiateSpec("mgr", InstanceSpec{DP: "args", Entry: "main", Args: args, Policy: RestartAlways}); err != nil {
		t.Fatal(err)
	}
	if err := p1.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, dpiManifest))
	if err != nil {
		t.Fatal(err)
	}

	p2 := newProcess(t, Config{})
	if _, n, err := p2.LoadCheckpoint(dir, "mgr"); err != nil || n != 1 {
		t.Fatalf("load = %d instances, %v", n, err)
	}
	infos, err := p2.Query("mgr", "")
	if err != nil || len(infos) != 1 {
		t.Fatalf("query = %+v, %v", infos, err)
	}
	d, _ := p2.Lookup(infos[0].ID)
	if len(d.spec.Args) != len(args) {
		t.Fatalf("restored args = %v", d.spec.Args)
	}
	for i := range args {
		if d.spec.Args[i] != args[i] {
			t.Errorf("arg %d restored as %#v, want %#v", i, d.spec.Args[i], args[i])
		}
	}
	if err := p2.Send("mgr", d.ID, "go"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := d.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := string(manifest) + "\nresult: " + dpl.Format(v) + "\n"
	const golden = "testdata/checkpoint_args.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("checkpoint round trip changed:\n got: %s\nwant: %s", got, want)
	}
}
