package mbd

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/obs"
	"mbd/internal/obs/obsmib"
	"mbd/internal/snmp"
)

// TestReflexiveSelfStats checks the paper's "management system managing
// itself" wiring end to end: the same registry a Prometheus scrape
// reads is mounted as a MIB subtree, and walking it over the SNMP agent
// returns the same live counter values.
func TestReflexiveSelfStats(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "dev", Interfaces: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(128)
	srv, err := New(Config{Device: dev, Obs: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	if err := obsmib.Mount(dev.Tree(), reg, obsmib.OIDSelfStats); err != nil {
		t.Fatal(err)
	}

	// Generate activity: one delegation, one instance run to completion.
	if err := srv.Process().Delegate("mgr", "noop", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	d, err := srv.Process().Instantiate("mgr", "noop", "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := d.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Read the registry the way a Prometheus scrape would.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "elastic_delegations_total 1") {
		t.Fatalf("scrape missing delegation count:\n%s", sb.String())
	}

	// Walk the same data over the SNMP agent (GetNext from the subtree
	// root, like a manager would) and collect name->value pairs.
	agent := srv.Agent()
	got := map[string]uint64{}
	names := map[int64]string{}
	cur := obsmib.OIDSelfStats
	for {
		req := &snmp.Message{Community: "public", Type: snmp.PDUGetNextRequest,
			VarBinds: []snmp.VarBind{{Name: cur}}}
		pkt, err := req.Encode()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := snmp.Decode(agent.HandlePacket(pkt))
		if err != nil || resp.ErrorStatus != snmp.NoError {
			break
		}
		vb := resp.VarBinds[0]
		if !vb.Name.HasPrefix(obsmib.OIDSelfStats) {
			break
		}
		rel := vb.Name[len(obsmib.OIDSelfStats):]
		if len(rel) == 2 {
			col, idx := rel[0], int64(rel[1])
			switch col {
			case 1:
				names[idx] = string(vb.Value.Bytes)
			case 2:
				if vb.Value.Kind != mib.KindCounter64 {
					t.Fatalf("value cell %v is %s, want Counter64", vb.Name, vb.Value.Kind)
				}
				got[names[idx]] = vb.Value.Uint
			}
		}
		cur = vb.Name
	}
	if len(got) == 0 {
		t.Fatal("SNMP walk of self-stats subtree returned nothing")
	}

	// Every flattened registry series must appear in the walk; sampled
	// stable counters must agree exactly.
	for _, s := range reg.Flatten() {
		if _, ok := got[s.Name]; !ok {
			t.Errorf("series %q absent from SNMP walk", s.Name)
		}
	}
	for _, name := range []string{
		"elastic_delegations_total",
		"elastic_instantiations_total",
		`elastic_events_total{kind="exit"}`,
	} {
		if got[name] != 1 {
			t.Errorf("%s over SNMP = %d, want 1 (walk: %d series)", name, got[name], len(got))
		}
	}
	// The scrape text must carry the same value the walk saw.
	if !strings.Contains(sb.String(), "elastic_instantiations_total "+strconv.FormatUint(got["elastic_instantiations_total"], 10)) {
		t.Error("scrape and SNMP walk disagree on elastic_instantiations_total")
	}
}
