package mbd

import (
	"context"
	"testing"
)

// TestHostCallsDoNotBox: what a delegated agent computes with costs no
// heap object per value. A counter read past 2^20, a parsed int, float
// arithmetic over counter-sized values and a 12-part split allocate only
// what they document: mibGet the OID it parses from its argument, split
// its Array and that Array's element slice.
func TestHostCallsDoNotBox(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	b := stockBindings(t)
	ctx := context.Background()
	const n = 100 // calls per probe run: the loop below
	for _, c := range []struct {
		name    string
		src     string
		perCall float64 // allocations one call may make
	}{
		{"mibGet of a Counter32 past 2^20", `var x = mibGet("1.3.6.1.2.1.2.2.1.10.1"); if (x < 1048576) { return x; }`, 1},
		{"int of a decimal string", `var x = int("123456789"); if (x != 123456789) { return x; }`, 0},
		{"float arithmetic", `f = f * 1.000001 + 1234567.25 - float(i * 4096);`, 0},
		{"a 12-part split", `var p = split("1.3.6.1.2.1.2.2.1.10.1.7", "."); if (len(p) != 12) { return p; }`, 2},
	} {
		src := `func probe() {
	var f = 123456789.5;
	for (var i = 0; i < 100; i += 1) {
		` + c.src + `
	}
	return f > 0.0;
}`
		vm := optimizedVM(t, b, src)
		run := func() {
			if r, err := vm.Run(ctx, "probe"); err != nil || r != true {
				t.Fatalf("%s: probe = %v, %v", c.name, r, err)
			}
		}
		run()
		if got := testing.AllocsPerRun(50, run) / n; got > c.perCall {
			t.Errorf("%s: %.2f allocations per call, want at most %v", c.name, got, c.perCall)
		}
	}
}
