package obsmib

import (
	"testing"

	"mbd/internal/elastic"
	"mbd/internal/mib"
	"mbd/internal/obs"
	"mbd/internal/oid"
	"mbd/internal/rds"
)

// TestRobustnessMetricsWalkable: the fault-tolerance counters — DPI
// panics/restarts, watchdog kills, drained RDS connections — publish on the
// shared registry and are therefore walkable as cells of the self-stats
// MIB subtree, like any other managed object.
func TestRobustnessMetricsWalkable(t *testing.T) {
	reg := obs.NewRegistry()

	// The elastic process and an RDS server publishing on one registry.
	p := elastic.NewProcess(elastic.Config{Obs: reg})
	t.Cleanup(p.Stop)
	rds.NewServer(p, nil, rds.WithObs(reg))

	tree := &mib.Tree{}
	if err := tree.Mount(OIDSelfStats, New(reg)); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	tree.Walk(OIDSelfStats, func(o oid.OID, v mib.Value) bool {
		if v.Kind == mib.KindOctetString {
			names[string(v.Bytes)] = true
		}
		return true
	})
	for _, want := range []string{
		"elastic_dpi_panics_total",
		"elastic_dpi_restarts_total",
		"elastic_watchdog_kills_total",
		"elastic_crash_loops_total",
		"rds_conns_drained_total",
	} {
		if !names[want] {
			t.Errorf("metric %s not walkable in self-stats subtree", want)
		}
	}
}
