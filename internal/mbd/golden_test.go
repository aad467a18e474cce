package mbd

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbd/internal/mib"
)

var update = flag.Bool("update", false, "rewrite testdata/artifacts from this tree")

func TestArtifactGolden(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "golden", Interfaces: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{Device: dev, EnableViews: true})
	srcs, err := filepath.Glob("../../examples/agents/*.dpl")
	if err != nil {
		t.Fatal(err)
	}
	srcs = append(srcs, "testdata/delegate_cold.dpl")
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.Process().CompileProgram("dpl", string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		blob, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got := hex.EncodeToString(blob) + "\n"
		golden := filepath.Join("testdata", "artifacts", strings.TrimSuffix(filepath.Base(path), ".dpl")+".hex")
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: artifact encoding changed", path)
		}
	}
}

// TestAgentBodyReportsGolden pins the reports the agent_rpc body renders
// over a device whose counters advance in fixed steps: the payload bytes
// a manager receives. testdata/agent_rpc_reports.golden was written by
// the engine that boxed every value in an interface.
func TestAgentBodyReportsGolden(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "golden", Interfaces: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.2, BroadcastFraction: 0.04, ErrorRate: 0.002, CollisionRate: 0.03})
	s := newServer(t, Config{Device: dev, EnableViews: true})
	src, err := os.ReadFile("testdata/agent_rpc.dpl")
	if err != nil {
		t.Fatal(err)
	}
	vm := optimizedVM(t, s.Process().Bindings(), string(src))
	var got strings.Builder
	for i := 0; i < 24; i++ {
		dev.Advance(time.Duration(i*i) * 250 * time.Millisecond)
		r, err := vm.Run(context.Background(), "body", fmt.Sprintf("n%d-%08x", i, i*2654435761))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&got, r)
	}
	const golden = "testdata/agent_rpc_reports.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("agent_rpc reports changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
