package mbd

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/mib"
)

// stockBindings returns the host bindings of a stock server over a
// 4-interface device whose counters have run for two minutes, so they
// are past 2^20 as on any device that has been up for a while.
func stockBindings(t testing.TB) *dpl.Bindings {
	t.Helper()
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "budget", Interfaces: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.2, BroadcastFraction: 0.04, ErrorRate: 0.002, CollisionRate: 0.03})
	dev.Advance(2 * time.Minute)
	s, err := New(Config{Device: dev, EnableViews: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s.Process().Bindings()
}

// optimizedVM compiles and optimizes src against b, as admission does.
func optimizedVM(t testing.TB, b *dpl.Bindings, src string) *dpl.VM {
	t.Helper()
	prog, err := dpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dpl.Compile(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	dpl.Optimize(obj)
	return dpl.NewVM(obj, b)
}

// agentBodyVM prepares the agent_rpc resident agent
// (testdata/agent_rpc.dpl, the benchmark's source for seed 1) on a stock
// server, ready to run its body.
func agentBodyVM(t testing.TB) *dpl.VM {
	t.Helper()
	src, err := os.ReadFile("testdata/agent_rpc.dpl")
	if err != nil {
		t.Fatal(err)
	}
	return optimizedVM(t, stockBindings(t), string(src))
}

// TestAgentBodyAllocBudget holds one run of the agent_rpc body to its
// allocation budget, the count and the bytes, each 10% above what it
// costs with unboxed values: 174 allocations and 30,587 B, of which 136
// allocations are the arrays the program's own 68 split calls build. It
// cost 1,408 allocations and 39,122 B when every string, counter and
// float was a heap object of its own.
func TestAgentBodyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const (
		maxAllocs = 191
		maxBytes  = 33_600
	)
	vm := agentBodyVM(t)
	ctx := context.Background()
	var bad error
	body := func() {
		v, err := vm.Run(ctx, "body", "n0-00000000")
		if err != nil {
			bad = err
		} else if s, _ := v.(string); !strings.Contains(s, " n=68 ") {
			t.Fatalf("body returned %q", s)
		}
	}
	body()
	allocs := testing.AllocsPerRun(200, body)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	for i := 0; i < runs; i++ {
		body()
	}
	runtime.ReadMemStats(&after)
	if bad != nil {
		t.Fatal(bad)
	}
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("agent_rpc body: %.0f allocs, %.0f B per run", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("agent_rpc body allocates %.0f times per run, budget %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("agent_rpc body allocates %.0f B per run, budget %d", bytes, maxBytes)
	}
}
