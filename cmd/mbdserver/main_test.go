package main

import (
	"flag"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"mbd/internal/obs"
	"mbd/internal/obs/obsmib"
	"mbd/internal/oid"
)

// parseFlags parses args into a fresh config the way main does.
func parseFlags(args ...string) (config, error) {
	c := config{peers: peersFlag{}}
	fs := flag.NewFlagSet("mbdserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(c.peers, "peer", "")
	fs.Var(&c.trapSink, "trapsink", "")
	return c, fs.Parse(args)
}

func TestPeerFlag(t *testing.T) {
	c, err := parseFlags("-peer", "self=127.0.0.1:1161", "-peer", "lan-b=[::1]:161")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.peers) != 2 || c.peers["self"] != "127.0.0.1:1161" || c.peers["lan-b"] != "[::1]:161" {
		t.Fatalf("peers = %v", c.peers)
	}
	for _, bad := range []struct{ arg, want string }{
		{"127.0.0.1:1161", "want name=host:port"},
		{"=127.0.0.1:1161", "want name=host:port"},
		{"self=127.0.0.1", "want host:port"},
		{"self=host:snmp", "bad port"},
		{"self=host:70000", "bad port"},
	} {
		if _, err := parseFlags("-peer", bad.arg); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("-peer %s: err = %v, want %q", bad.arg, err, bad.want)
		}
	}
	if _, err := parseFlags("-peer", "a=h:1", "-peer", "a=h:2"); err == nil || !strings.Contains(err.Error(), "given twice") {
		t.Errorf("duplicate peer: err = %v", err)
	}
}

func TestTrapSinkFlag(t *testing.T) {
	c, err := parseFlags()
	if err != nil || c.trapSink != "" {
		t.Fatalf("unset trap sink = %q, %v", c.trapSink, err)
	}
	if c, err = parseFlags("-trapsink", "127.0.0.1:1162"); err != nil || c.trapSink != "127.0.0.1:1162" {
		t.Fatalf("trap sink = %q, %v", c.trapSink, err)
	}
	for _, bad := range []string{"", "127.0.0.1", "localhost:trap", ":-1"} {
		if _, err := parseFlags("-trapsink", bad); err == nil {
			t.Errorf("-trapsink %q accepted", bad)
		}
	}
}

// TestRuntimeSeries scrapes the runtime series the way operators and
// the benchmark read them: /metrics, the registry snapshot RDS stats
// serves, and the self-MIB's names and values.
func TestRuntimeSeries(t *testing.T) {
	reg := obs.NewRegistry()
	registerRuntime(reg)
	runtime.GC()
	names := []string{"go_goroutines", "go_gc_heap_allocs_objects_total", "go_gc_heap_allocs_bytes_total",
		"go_gc_cycles_total", "go_gc_heap_live_bytes"}

	rec := httptest.NewRecorder()
	obs.Handler(reg, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, n := range names {
		if !strings.Contains(rec.Body.String(), "\n"+n+" ") {
			t.Errorf("/metrics lacks %s:\n%s", n, rec.Body)
		}
	}
	if strings.Contains(rec.Body.String(), "go_heap_alloc_bytes") {
		t.Error("/metrics still serves the stop-the-world go_heap_alloc_bytes")
	}

	values := map[string]uint64{}
	for _, s := range reg.Flatten() {
		values[s.Name] = s.Value()
	}
	for _, n := range names {
		if values[n] == 0 {
			t.Errorf("%s = 0 after a GC", n)
		}
	}
	objs := values["go_gc_heap_allocs_objects_total"]
	sink = make([]byte, 64)
	runtime.GC() // flushes the per-P allocation counts
	for _, s := range reg.Flatten() {
		if s.Name == "go_gc_heap_allocs_objects_total" && s.Value() <= objs {
			t.Errorf("allocated objects did not grow past %d after an allocation", objs)
		}
	}

	self := obsmib.New(reg)
	seen := map[string]bool{}
	for i := range len(values) {
		v, ok := self.GetRel(oid.OID{1, uint32(i + 1)})
		if !ok {
			t.Fatalf("self-MIB row %d missing", i+1)
		}
		seen[string(v.Bytes)] = true
	}
	for _, n := range names {
		if !seen[n] {
			t.Errorf("self-MIB lacks %s", n)
		}
	}
}

var sink []byte
