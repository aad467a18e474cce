package dpl_test

import (
	"context"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// TestStructureProvedAtAdmission: both admission paths, source through
// the Translator and an artifact through the bytecode verifier, record
// the structural proof on the admitting goroutine, so an instance's
// first run finds the program already proved.
func TestStructureProvedAtAdmission(t *testing.T) {
	p := elastic.NewProcess(elastic.Config{})
	defer p.Stop()
	const src = `var k = 3; func twice(x) { return 2 * x; } func main() { return twice(k) + 1; }`
	if err := p.Delegate("mgr", "src", "dpl", src); err != nil {
		t.Fatal(err)
	}
	dp, _ := p.Repository().Lookup("src")
	blob, err := dp.Program.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DelegateCompiled("mgr", "bin", blob); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range []string{"src", "bin"} {
		dp, _ := p.Repository().Lookup(name)
		if !dp.Object.StructureProved() {
			t.Fatalf("%s: admitted without a recorded structural proof; its first run would prove it", name)
		}
		d, err := p.Instantiate("mgr", name, "main")
		if err != nil {
			t.Fatal(err)
		}
		if v, err := d.Wait(ctx); err != nil || v != int64(7) {
			t.Fatalf("%s = %v, %v, want 7", name, v, err)
		}
	}
}
