package federation

import (
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/obs"
	"mbd/internal/rds"
)

// startMeteredNode is startNode with a per-node registry shared by the
// elastic process and the federation node, plus the MIB primitives
// stubbed so effect-bearing programs admit.
func startMeteredNode(t *testing.T, name, domain, parent string) (*testNode, *obs.Registry) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b := dpl.Std()
	b.Register("mibGet", 1, func(*dpl.Env, []dpl.Value) (dpl.Value, error) { return dpl.Int(1), nil })
	proc := elastic.NewProcess(elastic.Config{Bindings: b, Obs: reg})
	node, err := New(Config{
		Name:              name,
		Domain:            domain,
		Proc:              proc,
		Parent:            parent,
		Advertise:         l.Addr().String(),
		Obs:               reg,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rds.NewServer(proc, nil, rds.WithPeerHandler(node))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, l)
	}()
	node.Start()
	tn := &testNode{node: node, proc: proc, addr: l.Addr().String()}
	var once bool
	tn.stop = func() {
		if once {
			return
		}
		once = true
		node.Stop()
		cancel()
		<-done
		proc.Stop()
	}
	t.Cleanup(tn.stop)
	return tn, reg
}

func metricValue(reg *obs.Registry, name string) uint64 {
	for _, s := range reg.Flatten() {
		if s.Name == name {
			return s.Value()
		}
	}
	return 0
}

// TestCascadeShipsVerifiedBytecode: in a depth-3 domain tree, a source
// delegation fanned out from the root must run source-level analysis
// exactly once (at the root); every descendant hop admits the shipped
// artifact through the bytecode verifier without re-compiling.
func TestCascadeShipsVerifiedBytecode(t *testing.T) {
	root, rootReg := startMeteredNode(t, "root", "campus", "")
	mid, midReg := startMeteredNode(t, "mid", "building", root.addr)
	leaf, leafReg := startMeteredNode(t, "leaf", "lan", mid.addr)

	waitFor(t, 5*time.Second, "mid to join root", func() bool {
		st, ok := memberState(root.node, "mid")
		return ok && st == "alive"
	})
	waitFor(t, 5*time.Second, "leaf to join mid", func() bool {
		st, ok := memberState(mid.node, "leaf")
		return ok && st == "alive"
	})

	// A counting loop so the root's optimizer emits generation-3 fused
	// opcodes, and a string chain for the generation-4 ADDC/ADDN: the
	// cascade must ship and verify a current-generation artifact end to
	// end, not just code every older generation could hold.
	src := `func main() {
		var total = 0;
		var label = "";
		for (var i = 0; i < 3; i += 1) {
			total += mibGet("1.3.6.1.2.1.1.3.0");
			label = "i=" + str(i) + " total=" + str(total);
		}
		if (label != "i=2 total=" + str(total)) { return -1; }
		return total;
	}`
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := root.node.Fanout(ctx, "noc", "watch", "dpl", src, "", nil)
	if res.Accepted() != 3 || res.Rejected() != 0 {
		t.Fatalf("fanout: accepted=%d rejected=%d outcomes=%+v", res.Accepted(), res.Rejected(), res.Outcomes)
	}

	// Exactly one source-level analysis, at the root.
	if got := metricValue(rootReg, "elastic_source_analyses_total"); got != 1 {
		t.Errorf("root source analyses = %d, want 1", got)
	}
	for _, hop := range []struct {
		name string
		reg  *obs.Registry
	}{{"mid", midReg}, {"leaf", leafReg}} {
		if got := metricValue(hop.reg, "elastic_source_analyses_total"); got != 0 {
			t.Errorf("%s ran %d source analyses, want 0", hop.name, got)
		}
		if got := metricValue(hop.reg, "elastic_bytecode_verifications_total"); got != 1 {
			t.Errorf("%s ran %d bytecode verifications, want 1", hop.name, got)
		}
	}
	if got := metricValue(rootReg, "elastic_bytecode_verifications_total"); got != 0 {
		t.Errorf("root ran %d bytecode verifications, want 0", got)
	}

	// Each forwarding hop shipped bytecode, not source.
	if got := metricValue(rootReg, "federation_bytecode_ships_total"); got != 1 {
		t.Errorf("root bytecode ships = %d, want 1", got)
	}
	if got := metricValue(midReg, "federation_bytecode_ships_total"); got != 1 {
		t.Errorf("mid bytecode ships = %d, want 1", got)
	}

	// Every hop stored a runnable program; descendants hold the
	// verified artifact with no source.
	for _, hop := range []struct {
		name string
		tn   *testNode
		lang string
	}{{"root", root, "dpl"}, {"mid", mid, elastic.LangCompiled}, {"leaf", leaf, elastic.LangCompiled}} {
		dp, ok := hop.tn.proc.Repository().Lookup("watch")
		if !ok {
			t.Fatalf("%s did not store the DP", hop.name)
		}
		if dp.Lang != hop.lang {
			t.Errorf("%s stored lang %q, want %q", hop.name, dp.Lang, hop.lang)
		}
		if !slices.Contains(dp.Effects.HostNames(), "mibGet") {
			t.Errorf("%s lost the effect summary: %s", hop.name, dp.Effects.String())
		}
		if dp.Program.Version != dpl.CompilerVersion {
			t.Errorf("%s stored artifact generation %d, want %d", hop.name, dp.Program.Version, dpl.CompilerVersion)
		}
		byGen := map[int]int{}
		for _, fn := range dp.Object.Funcs {
			for _, in := range fn.Code {
				byGen[dpl.OpcodeVersion(in.Op)]++
			}
		}
		if byGen[3] == 0 || byGen[4] == 0 {
			t.Errorf("%s stored %d fused and %d chain opcodes; the cascade did not exercise generation-3 and -4 code:\n%s",
				hop.name, byGen[3], byGen[4], dpl.Disassemble(dp.Object))
		}
		dpi, err := hop.tn.proc.Instantiate("noc", "watch", "main")
		if err != nil {
			t.Fatalf("%s instantiate: %v", hop.name, err)
		}
		if v, err := dpi.Wait(ctx); err != nil || v != int64(3) {
			t.Fatalf("%s ran to (%v, %v)", hop.name, v, err)
		}
	}
}
