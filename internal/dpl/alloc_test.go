package dpl_test

import (
	"context"
	"testing"

	"mbd/internal/dpl"
)

// TestStringChainAllocatesOnce: a chain of strings is built in one
// allocation, whatever its length.
func TestStringChainAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	b := dpl.Std()
	c := dpl.MustCompile(`func main(a, b) { return a + " " + b + " " + a + b; }`, b)
	vm := dpl.NewVM(c, b)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := vm.Run(ctx, "main", "nonce", "ifInOctets.1 = 42"); err != nil {
			t.Fatal(err)
		}
	})
	// One for the string, one for boxing it in the any Run returns.
	if allocs != 2 {
		t.Fatalf("a five-operand string chain made %v allocations per run, want 2", allocs)
	}
}
