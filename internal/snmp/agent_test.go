package snmp

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

func testTreeAndAgent(t *testing.T) (*mib.Device, *Agent) {
	t.Helper()
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "agent-under-test", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dev, NewAgent(dev.Tree(), "public")
}

func TestAgentGet(t *testing.T) {
	_, agent := testTreeAndAgent(t)
	c := NewClient(AgentTripper(agent), "public")
	vbs, err := c.Get(context.Background(), mib.OIDSysName.Append(0), mib.OIDSysUpTime.Append(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(vbs[0].Value.Bytes) != "agent-under-test" {
		t.Fatalf("sysName = %v", vbs[0].Value)
	}
	if vbs[1].Value.Kind != mib.KindTimeTicks {
		t.Fatalf("sysUpTime kind = %v", vbs[1].Value.Kind)
	}
}

func TestAgentGetNoSuchName(t *testing.T) {
	_, agent := testTreeAndAgent(t)
	c := NewClient(AgentTripper(agent), "public")
	_, err := c.Get(context.Background(), oid.MustParse("1.3.6.1.2.1.1.99.0"))
	var re *RequestError
	if !errors.As(err, &re) || re.Status != NoSuchName || re.Index != 1 {
		t.Fatalf("err = %v, want NoSuchName at 1", err)
	}
}

func TestAgentCommunityAuth(t *testing.T) {
	_, agent := testTreeAndAgent(t)
	c := NewClient(AgentTripper(agent), "wrong", WithRetries(0), WithTimeout(50*time.Millisecond))
	if _, err := c.Get(context.Background(), mib.OIDSysName.Append(0)); err == nil {
		t.Fatal("wrong community accepted")
	}
	if agent.Stats().BadCommunity == 0 {
		t.Fatal("BadCommunity not counted")
	}
}

func TestAgentDropsGarbage(t *testing.T) {
	_, agent := testTreeAndAgent(t)
	if resp := agent.HandlePacket([]byte{0xFF, 0x01, 0x02}); resp != nil {
		t.Fatal("garbage produced a response")
	}
	if agent.Stats().BadVersion == 0 {
		t.Fatal("bad packet not counted")
	}
}

func TestAgentWalkMatchesTreeWalk(t *testing.T) {
	dev, agent := testTreeAndAgent(t)
	dev.Advance(3 * time.Second)
	c := NewClient(AgentTripper(agent), "public")

	var viaSNMP []string
	n, err := c.Walk(context.Background(), oid.MustParse("1.3.6.1.2.1"), func(vb VarBind) bool {
		viaSNMP = append(viaSNMP, vb.Name.String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var viaTree []string
	dev.Tree().Walk(oid.MustParse("1.3.6.1.2.1"), func(o oid.OID, v mib.Value) bool {
		viaTree = append(viaTree, o.String())
		return true
	})
	if n != len(viaTree) {
		t.Fatalf("SNMP walk saw %d, tree walk saw %d", n, len(viaTree))
	}
	for i := range viaTree {
		if viaSNMP[i] != viaTree[i] {
			t.Fatalf("walk diverged at %d: %s vs %s", i, viaSNMP[i], viaTree[i])
		}
	}
}

func TestAgentSetPaths(t *testing.T) {
	tree := &mib.Tree{}
	val := mib.Int(1)
	if err := tree.Mount(oid.MustParse("1.3.1"), &mib.Scalar{
		Get: func() mib.Value { return val },
		Set: func(v mib.Value) error {
			if v.Kind != mib.KindInteger {
				return mib.ErrBadValue
			}
			val = v
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Mount(oid.MustParse("1.3.2"), mib.ConstScalar(mib.Int(0))); err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(tree, "private")
	c := NewClient(AgentTripper(agent), "private")
	ctx := context.Background()
	set := func(vb VarBind) error {
		_, err := c.exchange(ctx, PDUSetRequest, []VarBind{vb})
		return err
	}

	if err := set(VarBind{Name: oid.MustParse("1.3.1.0"), Value: mib.Int(9)}); err != nil {
		t.Fatal(err)
	}
	if val.Int != 9 {
		t.Fatal("set did not apply")
	}
	var re *RequestError
	err := set(VarBind{Name: oid.MustParse("1.3.1.0"), Value: mib.Str("no")})
	if !errors.As(err, &re) || re.Status != BadValue {
		t.Fatalf("bad value: %v", err)
	}
	err = set(VarBind{Name: oid.MustParse("1.3.2.0"), Value: mib.Int(1)})
	if !errors.As(err, &re) || re.Status != ReadOnly {
		t.Fatalf("read-only: %v", err)
	}
	err = set(VarBind{Name: oid.MustParse("1.3.3.0"), Value: mib.Int(1)})
	if !errors.As(err, &re) || re.Status != NoSuchName {
		t.Fatalf("missing: %v", err)
	}
}

func TestClientRetryOnTransientDrop(t *testing.T) {
	_, agent := testTreeAndAgent(t)
	calls := 0
	flaky := RoundTripperFunc(func(ctx context.Context, req []byte) ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("dropped")
		}
		return agent.HandlePacket(req), nil
	})
	c := NewClient(flaky, "public", WithRetries(2), WithTimeout(50*time.Millisecond))
	if _, err := c.Get(context.Background(), mib.OIDSysName.Append(0)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Retries != 1 || st.Timeouts != 1 {
		t.Fatalf("stats = %+v, want one retry and one timeout", st)
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	dead := RoundTripperFunc(func(ctx context.Context, req []byte) ([]byte, error) {
		return nil, errors.New("black hole")
	})
	c := NewClient(dead, "public", WithRetries(1), WithTimeout(10*time.Millisecond))
	if _, err := c.Get(context.Background(), mib.OIDSysName.Append(0)); err == nil {
		t.Fatal("request into black hole succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	blocked := RoundTripperFunc(func(ctx context.Context, req []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c := NewClient(blocked, "public", WithRetries(5), WithTimeout(time.Hour))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Get(ctx, mib.OIDSysName.Append(0)); err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not propagate promptly")
	}
}

func TestAgentOverRealUDP(t *testing.T) {
	dev, agent := testTreeAndAgent(t)
	dev.Advance(time.Second)

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- agent.ServeUDP(ctx, pc) }()

	tr, err := DialUDP(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, "public", WithTimeout(2*time.Second))
	vbs, err := c.Get(context.Background(), mib.OIDSysName.Append(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(vbs[0].Value.Bytes) != "agent-under-test" {
		t.Fatalf("over UDP: %v", vbs[0].Value)
	}
	n, err := c.Walk(context.Background(), oid.MustParse("1.3.6.1.2.1.1"), func(VarBind) bool { return true })
	if err != nil || n != 7 {
		t.Fatalf("system group walk over UDP = %d, %v", n, err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
}

func TestWalkRejectsNonIncreasingAgent(t *testing.T) {
	// A malicious/buggy agent that always returns the same OID must not
	// put the walker into an infinite loop.
	evil := RoundTripperFunc(func(ctx context.Context, req []byte) ([]byte, error) {
		m, err := Decode(req)
		if err != nil {
			return nil, err
		}
		resp := &Message{
			Community: m.Community, Type: PDUGetResponse, RequestID: m.RequestID,
			VarBinds: []VarBind{{Name: oid.MustParse("1.3.6.1.2.1.1.1.0"), Value: mib.Int(0)}},
		}
		return resp.Encode()
	})
	c := NewClient(evil, "public")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := c.Walk(context.Background(), oid.MustParse("1.3.6.1.2.1.1.1.0"), func(VarBind) bool { return true })
		if err == nil {
			t.Error("non-increasing walk did not error")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("walk hung on non-increasing agent")
	}
}

// panicHandler explodes on any access — a stand-in for a buggy mounted
// MIB handler.
type panicHandler struct{}

func (panicHandler) GetRel(rel oid.OID) (mib.Value, bool) { panic("mib handler bug") }
func (panicHandler) NextRel(rel oid.OID) (oid.OID, mib.Value, bool) {
	panic("mib handler bug")
}

func TestAgentRecoversHandlerPanic(t *testing.T) {
	dev, agent := testTreeAndAgent(t)
	if err := dev.Tree().Mount(oid.MustParse("1.3.6.1.4.1.99999"), panicHandler{}); err != nil {
		t.Fatal(err)
	}
	// A request touching the buggy subtree is dropped, not fatal.
	c := NewClient(AgentTripper(agent), "public", WithRetries(0), WithTimeout(100*time.Millisecond))
	if _, err := c.Get(context.Background(), oid.MustParse("1.3.6.1.4.1.99999.1.0")); err == nil {
		t.Fatal("panicking handler answered")
	}
	if got := agent.Stats().Panics; got == 0 {
		t.Fatal("panic not counted")
	}
	// The serve loop survives: ordinary requests still work.
	vbs, err := c.Get(context.Background(), mib.OIDSysName.Append(0))
	if err != nil || string(vbs[0].Value.Bytes) != "agent-under-test" {
		t.Fatalf("agent dead after handler panic: %v", err)
	}
}
