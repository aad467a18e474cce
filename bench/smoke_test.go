package main

import (
	"io"
	"regexp"
	"testing"
)

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestQuickSuite runs the whole harness in its -quick shape: every
// workload for one short round, the traced round, the extras server and
// the layer probes. It holds the harness and BENCHMARK.json together:
// every name the file lists is produced for every workload with a finite
// value and its unit, nothing is produced that the file does not list, and
// every name is made of letters, digits, '_', '.' and '-'.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("starts mbdserver child processes; skipped with -short")
	}
	const root = ".."
	cat, err := loadCatalogue(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{root: root, seed: 5, seconds: 0.5, rounds: 1, trace: true, quick: true, out: io.Discard}
	for _, w := range workloads {
		cfg.names = append(cfg.names, w.name)
	}
	if len(cat.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(cat.Workloads), len(workloads))
	}
	for i, w := range cat.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	if cfg.bin, cfg.buildDur, err = buildServer(root); err != nil {
		t.Fatal(err)
	}
	runs, err := suite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if !r.correct() {
			t.Errorf("%s: wrong result: fail ratio %v, violations %v", r.w.name, r.failRatio(), r.violations)
		}
		for _, kind := range []struct {
			trace bool
			defs  []metricDef
		}{{false, cat.EndToEnd}, {true, cat.PerLayer}} {
			// result fails on a listed name that was not produced or is not
			// finite, and on a produced name that is not listed.
			res, err := r.result(cat, kind.trace)
			if err != nil {
				t.Errorf("%s: %v", r.w.name, err)
				continue
			}
			if len(res.Metrics) != len(kind.defs) {
				t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", r.w.name, len(res.Metrics), len(kind.defs))
			}
			for _, d := range kind.defs {
				switch v := res.Metrics[d.Name]; {
				case v.Unit == "" || v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", r.w.name, d.Name, v.Unit, d.Unit)
				case !metricNameRE.MatchString(d.Name):
					t.Errorf("%s: bad metric name %q", r.w.name, d.Name)
				}
			}
		}
		// No end-to-end metric may read 0: a bound is a share of it.
		for name, s := range r.e2e {
			if s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", r.w.name, name, s.Median)
			}
		}
	}
}
