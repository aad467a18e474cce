package rds

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// TestOpTable holds the op table to the contract every reader relies
// on: wire names as they always were, one row per assigned code, no
// request row missing its retry class or handler, and every subsystem
// requirement enforced.
func TestOpTable(t *testing.T) {
	want := []string{"op(0)", "delegate", "instantiate", "control", "send",
		"query", "delete-dp", "subscribe", "reply", "event", "eval", "stats",
		"peer-join", "op(13)", "peer-delegate", "op(15)", "peer-sync",
		"peer-bundle-stage", "peer-bundle-activate", "view", "op(20)"}
	for code, name := range want {
		if got := Op(code).String(); got != name {
			t.Errorf("Op(%d).String() = %q, want %q", code, got, name)
		}
	}

	seen := map[string]bool{}
	for code, sp := range opTable {
		if sp.name == "" {
			continue
		}
		if seen[sp.name] {
			t.Errorf("op name %q used twice", sp.name)
		}
		seen[sp.name] = true
		rows := []opSpec{sp}
		if sp.verbs != nil {
			rows = sp.verbs
			if sp.noun == "" || sp.retry != 0 || sp.serve != nil {
				t.Errorf("%s: a verb op states its noun and leaves retry and handler to its verbs", sp.name)
			}
			verbs := map[string]bool{}
			for _, v := range sp.verbs {
				if verbs[v.name] {
					t.Errorf("%s verb %q used twice", sp.name, v.name)
				}
				verbs[v.name] = true
			}
		}
		for _, r := range rows {
			switch Op(code) {
			case OpReply, OpEvent:
				if r.retry != 0 || r.serve != nil || r.needs != 0 || r.timeout != 0 {
					t.Errorf("%s carries more than a name", r.name)
				}
			case OpSubscribe:
				if r.retry == 0 || r.serve != nil {
					t.Errorf("subscribe: want a retry class and no handler")
				}
			default:
				if r.retry == 0 || r.serve == nil {
					t.Errorf("%s %s: request row missing retry class or handler", sp.name, r.name)
				}
			}
		}
	}

	for _, code := range []Op{0, 13, 15, 20} {
		if _, err := Decode((&Message{Op: code}).Encode()); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("Decode accepted op code %d: %v", code, err)
		}
	}

	// On a server built with neither federation nor views, every row
	// needing one answers its subsystem's error.
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	s := NewServer(proc, nil)
	absent := map[subsystem]error{federation: ErrNoFederation, viewEngine: ErrNoViews}
	checked := 0
	for code, sp := range opTable {
		check := func(verb string, needs subsystem) {
			if needs == 0 {
				return
			}
			checked++
			resp := s.handle(context.Background(), &Message{Op: Op(code), Entry: verb})
			if resp.OK || resp.Error != absent[needs].Error() {
				t.Errorf("%s %q on a bare server = %+v, want %v", Op(code), verb, resp, absent[needs])
			}
		}
		check("", sp.needs)
		for _, v := range sp.verbs {
			check(v.name, max(sp.needs, v.needs))
		}
	}
	if checked != 10 {
		t.Fatalf("checked %d rows needing a subsystem, want 10", checked)
	}

	// The refusals a client can see keep their texts.
	withViews := NewServer(proc, nil, WithViewHandler(noViews{}))
	for _, tc := range []struct {
		srv  *Server
		req  Message
		want string
	}{
		{s, Message{Op: OpStats, Entry: "bogus"}, `rds: unknown stats view "bogus"`},
		{s, Message{Op: OpView, Entry: "bogus"}, ErrNoViews.Error()},
		{withViews, Message{Op: OpView, Entry: "bogus"}, `rds: unknown view verb "bogus"`},
		{s, Message{Op: OpReply}, "rds: cannot serve reply"},
		{s, Message{Op: OpEvent}, "rds: cannot serve event"},
	} {
		if resp := tc.srv.handle(context.Background(), &tc.req); resp.OK || resp.Error != tc.want {
			t.Errorf("%s %q = %q, want %q", tc.req.Op, tc.req.Entry, resp.Error, tc.want)
		}
	}
}

// noViews is a view engine holding no views.
type noViews struct{}

func (noViews) StatusJSON() ([]byte, error)       { return []byte("{}"), nil }
func (noViews) DefineJSON(string) ([]byte, error) { return nil, errors.New("no views") }
func (noViews) QueryJSON(string) ([]byte, error)  { return nil, errors.New("no views") }

// TestClientRetryClass: while the connection is down and cannot come
// back, every idempotent verb waits out its context, and every mutating
// verb fails fast with ErrDisconnected.
func TestClientRetryClass(t *testing.T) {
	a, b := net.Pipe()
	c := NewClient(a, "mgr",
		WithDialer(func() (net.Conn, error) { return nil, errors.New("unreachable") }),
		WithReconnect(ReconnectConfig{BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond}))
	t.Cleanup(func() { c.Close() })
	b.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !errors.Is(c.Delegate(context.Background(), "x", ""), ErrDisconnected) {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the lost connection")
		}
		time.Sleep(time.Millisecond)
	}

	verbs := []struct {
		name       string
		idempotent bool
		call       func(context.Context) error
	}{
		{"Delegate", false, func(ctx context.Context) error { return c.Delegate(ctx, "x", "") }},
		{"DelegateCompiled", false, func(ctx context.Context) error { return c.DelegateCompiled(ctx, "x", nil) }},
		{"Instantiate", false, func(ctx context.Context) error { _, err := c.Instantiate(ctx, "x", "main"); return err }},
		{"Control", false, func(ctx context.Context) error { return c.Control(ctx, "x#1", "terminate") }},
		{"Send", false, func(ctx context.Context) error { return c.Send(ctx, "x#1", "m") }},
		{"Query", true, func(ctx context.Context) error { _, err := c.Query(ctx, ""); return err }},
		{"DeleteDP", false, func(ctx context.Context) error { return c.DeleteDP(ctx, "x") }},
		{"Eval", false, func(ctx context.Context) error { _, err := c.Eval(ctx, "", "main"); return err }},
		{"Subscribe", false, func(ctx context.Context) error { return c.Subscribe(ctx, "") }},
		{"Stats", true, func(ctx context.Context) error { _, err := c.Stats(ctx); return err }},
		{"TenantStatus", true, func(ctx context.Context) error { _, err := c.TenantStatus(ctx); return err }},
		{"ViewStatus", true, func(ctx context.Context) error { _, err := c.ViewStatus(ctx); return err }},
		{"ViewDefine", true, func(ctx context.Context) error { _, err := c.ViewDefine(ctx, ""); return err }},
		{"ViewQuery", true, func(ctx context.Context) error { _, err := c.ViewQuery(ctx, "v"); return err }},
		{"Trace", true, func(ctx context.Context) error { _, err := c.Trace(ctx, 1); return err }},
		{"DomainStatus", true, func(ctx context.Context) error { _, err := c.DomainStatus(ctx); return err }},
		{"PeerJoin", false, func(ctx context.Context) error { return c.PeerJoin(ctx, "m", "d", "a") }},
		{"PeerDelegate", false, func(ctx context.Context) error { _, err := c.PeerDelegate(ctx, "x", "", ""); return err }},
		{"PeerDelegateCompiled", false, func(ctx context.Context) error { _, err := c.PeerDelegateCompiled(ctx, "x", nil, ""); return err }},
		{"PeerSync", false, func(ctx context.Context) error { return c.PeerSync(ctx, "m", &SyncBatch{}) }},
		{"PeerBundleStage", false, func(ctx context.Context) error { _, err := c.PeerBundleStage(ctx, "l", "h", nil); return err }},
		{"PeerBundleActivate", false, func(ctx context.Context) error { _, err := c.PeerBundleActivate(ctx, "l", "h"); return err }},
	}
	const wait = 100 * time.Millisecond
	for _, v := range verbs {
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		start := time.Now()
		err := v.call(ctx)
		took := time.Since(start)
		cancel()
		// A retrying verb can only end with its context; a mutating one
		// must not wait for it.
		switch {
		case v.idempotent && !errors.Is(err, context.DeadlineExceeded):
			t.Errorf("%s: %v after %v, want to wait out its %v deadline", v.name, err, took, wait)
		case !v.idempotent && (!errors.Is(err, ErrDisconnected) || took >= wait/2):
			t.Errorf("%s: %v after %v, want ErrDisconnected at once", v.name, err, took)
		}
	}
}
