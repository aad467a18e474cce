package mbd

import (
	"context"
	"strings"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/snmp"
)

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Device == nil {
		dev, err := mib.NewDevice(mib.DeviceConfig{Name: "mbd-dev", Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Device = dev
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func runAgent(t *testing.T, s *Server, name, src string, args ...any) any {
	t.Helper()
	if err := s.Process().Delegate("mgr", name, "dpl", src); err != nil {
		t.Fatalf("delegate %s: %v", name, err)
	}
	d, err := s.Process().Instantiate("mgr", name, "main", args...)
	if err != nil {
		t.Fatalf("instantiate %s: %v", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := d.Wait(ctx)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return v
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("server without device accepted")
	}
}

func TestMibGetFromAgent(t *testing.T) {
	s := newServer(t, Config{})
	got := runAgent(t, s, "reader", `
func main() {
	return mibGet("1.3.6.1.2.1.1.5.0");
}`)
	if got != "mbd-dev" {
		t.Fatalf("mibGet sysName = %v", got)
	}
}

func TestMibGetAbsentIsNil(t *testing.T) {
	s := newServer(t, Config{})
	got := runAgent(t, s, "reader2", `func main() { return mibGet("1.3.6.1.2.1.1.99.0") == nil; }`)
	if got != true {
		t.Fatalf("= %v", got)
	}
}

func TestMibGetBadOIDFailsInstance(t *testing.T) {
	s := newServer(t, Config{})
	if err := s.Process().Delegate("mgr", "bad", "dpl", `func main() { return mibGet("not-an-oid"); }`); err != nil {
		t.Fatal(err)
	}
	d, err := s.Process().Instantiate("mgr", "bad", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "invalid arc") {
		t.Fatalf("err = %v", err)
	}
}

func TestMibNextAndWalk(t *testing.T) {
	s := newServer(t, Config{})
	got := runAgent(t, s, "walker", `
func main() {
	var first = mibNext("1.3.6.1.2.1.1");
	var sys = mibWalk("1.3.6.1.2.1.1");
	var end = mibNext("9.9.9");
	return sprintf("%s|%d|%v", first[0], len(sys), end == nil);
}`)
	if got != "1.3.6.1.2.1.1.1.0|7|true" {
		t.Fatalf("= %v", got)
	}
}

func TestMibDeltaComputation(t *testing.T) {
	// A delegated agent computes the paper's utilization formula from
	// the private counter, locally, across an Advance step.
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "util-dev", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.30})
	s := newServer(t, Config{Device: dev})

	if err := s.Process().Delegate("mgr", "util", "dpl", `
func main() {
	var c0 = mibGet("1.3.6.1.4.1.45.1.3.2.1.0");
	var m = recv(-1);
	var c1 = mibGet("1.3.6.1.4.1.45.1.3.2.1.0");
	var dt = int(m);
	return float(c1 - c0) / (float(dt) * 10000000.0);
}`); err != nil {
		t.Fatal(err)
	}
	d, err := s.Process().Instantiate("mgr", "util", "main")
	if err != nil {
		t.Fatal(err)
	}
	// Let the agent read c0, then advance the device 10 virtual seconds.
	time.Sleep(20 * time.Millisecond)
	dev.Advance(10 * time.Second)
	if err := s.Process().Send("mgr", d.ID, "10"); err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	u, ok := v.(float64)
	if !ok || u < 0.27 || u > 0.33 {
		t.Fatalf("delegated utilization = %v, want ≈0.30", v)
	}
}

func TestMibSet(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "set-dev", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Mount a writable scalar for the test.
	var stored mib.Value = mib.Int(0)
	err = dev.Tree().Mount(mustOID("1.3.6.1.4.1.9999.1"), &mib.Scalar{
		Get: func() mib.Value { return stored },
		Set: func(v mib.Value) error {
			if v.Kind != mib.KindInteger {
				return mib.ErrBadValue
			}
			stored = v
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{Device: dev})
	got := runAgent(t, s, "writer", `
func main() {
	var ok1 = mibSet("1.3.6.1.4.1.9999.1.0", 42);
	var ok2 = mibSet("1.3.6.1.2.1.1.5.0", "nope"); // read-only
	var ok3 = mibSet("1.3.6.1.4.1.9999.1.0", "wrong type");
	return sprintf("%v|%v|%v|%v", ok1, ok2, ok3, mibGet("1.3.6.1.4.1.9999.1.0"));
}`)
	if got != "true|false|false|42" {
		t.Fatalf("= %v", got)
	}
}

func TestSysname(t *testing.T) {
	s := newServer(t, Config{})
	if got := runAgent(t, s, "who", `func main() { return sysname(); }`); got != "mbd-dev" {
		t.Fatalf("= %v", got)
	}
}

func TestSNMPProxyToPeers(t *testing.T) {
	// An MbD server fronting a subordinate SNMP device: the delegated
	// agent reaches the peer through the proxy host functions.
	peerDev, err := mib.NewDevice(mib.DeviceConfig{Name: "peer-1", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	peerAgent := snmp.NewAgent(peerDev.Tree(), "public")
	s := newServer(t, Config{})
	s.AddPeer("peer-1", snmp.NewClient(snmp.AgentTripper(peerAgent), "public"))

	got := runAgent(t, s, "proxy", `
func main() {
	var name = snmpGet("peer-1", "1.3.6.1.2.1.1.5.0");
	var nx = snmpNext("peer-1", "1.3.6.1.2.1.1.5");
	var missing = snmpGet("peer-1", "1.3.6.1.2.1.1.99.0");
	var noPeer = "ok";
	return sprintf("%s|%s|%v|%s", name, nx[0], missing == nil, noPeer);
}`)
	if got != "peer-1|1.3.6.1.2.1.1.5.0|true|ok" {
		t.Fatalf("= %v", got)
	}

	// Unknown peers are a hard error (configuration bug, not data).
	if err := s.Process().Delegate("mgr", "badpeer", "dpl",
		`func main() { return snmpGet("ghost", "1.3.6.1.2.1.1.5.0"); }`); err != nil {
		t.Fatal(err)
	}
	d, err := s.Process().Instantiate("mgr", "badpeer", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "no peer") {
		t.Fatalf("err = %v", err)
	}
}

func TestSameTreeVisibleViaSNMPAndLocally(t *testing.T) {
	// The architectural point: one MIB, two access paths.
	s := newServer(t, Config{})
	s.Device().Advance(2 * time.Second)

	local := runAgent(t, s, "local", `func main() { return mibGet("1.3.6.1.2.1.1.3.0"); }`)

	c := snmp.NewClient(snmp.AgentTripper(s.Agent()), "public")
	vbs, err := c.Get(context.Background(), mib.OIDSysUpTime.Append(0))
	if err != nil {
		t.Fatal(err)
	}
	remote := int64(vbs[0].Value.Uint)
	if local != remote {
		t.Fatalf("local %v != remote %v", local, remote)
	}
}

func TestExtraBindingsMerge(t *testing.T) {
	extra := dpl.NewBindings()
	calls := 0
	extra.Register("custom", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		calls++
		n, _ := args[0].AsInt()
		return dpl.Int(n + 1), nil
	})
	s := newServer(t, Config{ExtraBindings: extra})
	if got := runAgent(t, s, "c", `func main() { return custom(41); }`); got != int64(42) {
		t.Fatalf("= %v", got)
	}
	if calls != 1 {
		t.Fatal("extra binding not invoked through merge")
	}
}

func TestValueConversions(t *testing.T) {
	cases := []struct {
		in   mib.Value
		want dpl.Value
	}{
		{mib.Null(), dpl.Value{}},
		{mib.Int(-5), dpl.Int(-5)},
		{mib.Str("x"), dpl.Str("x")},
		{mib.Counter32(7), dpl.Int(7)},
		{mib.Gauge32(8), dpl.Int(8)},
		{mib.TimeTicks(9), dpl.Int(9)},
		{mib.IP(1, 2, 3, 4), dpl.Str("1.2.3.4")},
		{mib.OIDValue(mustOID("1.3.6")), dpl.Str("1.3.6")},
	}
	for _, c := range cases {
		if got := ToDPL(c.in); got.Kind() != c.want.Kind() || got.String() != c.want.String() {
			t.Errorf("ToDPL(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if v, err := FromDPL(dpl.Int(5)); err != nil || v.Int != 5 {
		t.Error("FromDPL(int)")
	}
	if v, err := FromDPL(dpl.Str("s")); err != nil || string(v.Bytes) != "s" {
		t.Error("FromDPL(string)")
	}
	if v, err := FromDPL(dpl.Bool(true)); err != nil || v.Int != 1 {
		t.Error("FromDPL(bool)")
	}
	if v, err := FromDPL(dpl.Value{}); err != nil || v.Kind != mib.KindNull {
		t.Error("FromDPL(dpl.Value{})")
	}
	if _, err := FromDPL(dpl.ArrayOf()); err == nil {
		t.Error("FromDPL(array) should fail")
	}
}

func TestACLPassesThrough(t *testing.T) {
	acl := elastic.NewACL()
	acl.Grant("ok", elastic.RightDelegate)
	s := newServer(t, Config{ACL: acl})
	if err := s.Process().Delegate("ok", "x", "dpl", `func main() {}`); err != nil {
		t.Fatal(err)
	}
	if err := s.Process().Delegate("intruder", "y", "dpl", `func main() {}`); err == nil {
		t.Fatal("ACL not enforced")
	}
}

func mustOID(s string) oid.OID { return oid.MustParse(s) }
