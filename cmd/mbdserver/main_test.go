package main

import (
	"flag"
	"io"
	"strings"
	"testing"
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
