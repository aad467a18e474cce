package rds

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// TestQuotaRejectionOverWire: a QUO001 admission rejection crosses the
// wire as a structured RejectError, and delivered events carry the
// emitting instance's billing principal.
func TestQuotaRejectionOverWire(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{Quota: elastic.Quota{MaxLiveDPIs: 1}})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := c.Subscribe(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(ctx, "daemon", `func main() { recv(-1); return 0; }`); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "daemon", "main")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Instantiate(ctx, "daemon", "main")
	var rej *RejectError
	if !errors.As(err, &rej) || !hasCode(rej, "QUO001") {
		t.Fatalf("second instantiate: %v, want QUO001 RejectError", err)
	}
	if err := c.Control(ctx, id, "terminate"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("event stream closed early")
			}
			if ev.Kind != "exit" {
				continue
			}
			if ev.Principal != "mgr" {
				t.Fatalf("exit event principal = %q, want mgr", ev.Principal)
			}
			return
		case <-deadline:
			t.Fatal("exit event never arrived")
		}
	}
}

// TestRequestRateShedOverWire: a principal over its request-rate quota
// gets QUO005-coded rejections while the shed is billed to its ledger,
// over either transport.
func TestRequestRateShedOverWire(t *testing.T) {
	for _, tr := range []struct {
		name string
		dial func(*testing.T, *elastic.Process) *Client
	}{
		{"tcp", func(t *testing.T, p *elastic.Process) *Client { return startServer(t, p, nil) }},
		{"udp", func(t *testing.T, p *elastic.Process) *Client { c, _ := startPacketServer(t, p, nil); return c }},
	} {
		t.Run(tr.name, func(t *testing.T) {
			proc := elastic.NewProcess(elastic.Config{Quota: elastic.Quota{RequestsPerSec: 1}})
			t.Cleanup(proc.Stop)
			query := tr.dial(t, proc).Query
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			var shed *RejectError
			for i := 0; i < 20 && shed == nil; i++ {
				if _, err := query(ctx, ""); err != nil {
					var rej *RejectError
					if !errors.As(err, &rej) {
						t.Fatalf("query %d: %v, want RejectError", i, err)
					}
					shed = rej
				}
			}
			if shed == nil || !hasCode(shed, "QUO005") {
				t.Fatalf("burst never shed with QUO005: %+v", shed)
			}
			var billed bool
			for _, st := range proc.Tenants().List() {
				if st.Principal == "mgr" && st.RequestsShed > 0 {
					billed = true
				}
			}
			if !billed {
				t.Fatalf("shed not billed to tenant: %+v", proc.Tenants().List())
			}
		})
	}
}

// TestTenantStatusOverWire: the stats subtree serves the tenant table
// to mbdctl.
func TestTenantStatusOverWire(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	proc.Tenants().SetQuota("gold", elastic.Quota{MaxLiveDPIs: 3, Weight: 4})
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	doc, err := c.TenantStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"default_quota"`, `"gold"`, `"max_live_dpis": 3`} {
		if !strings.Contains(doc, want) {
			t.Fatalf("tenant status missing %s:\n%s", want, doc)
		}
	}
}

// pushOne pushes a batch of ev alone and returns the principal whose
// event an overflow dropped to make room for it.
func pushOne(q *eventQueue, ev elastic.Event) (victim string, dropped bool) {
	if lost := q.push([]elastic.Event{ev}, nil); len(lost) > 0 {
		return lost[0].principal, true
	}
	return "", false
}

// TestEventQueueTenantVictim: on overflow the queue drops the pushing
// principal's own oldest event when it has any queued, otherwise the
// hog's — a quiet tenant's events are never the victim.
func TestEventQueueTenantVictim(t *testing.T) {
	q := newEventQueue(4, nil, nil)
	for i := 0; i < 4; i++ {
		if _, dropped := pushOne(q, elastic.Event{Principal: "flood", Payload: "f"}); dropped {
			t.Fatalf("push %d dropped below capacity", i)
		}
	}
	// A quiet principal's first event evicts the hog, not itself.
	victim, dropped := pushOne(q, elastic.Event{Principal: "quiet", Payload: "q1"})
	if !dropped || victim != "flood" {
		t.Fatalf("victim = %q (dropped %v), want flood", victim, dropped)
	}
	// The flooder pushing again self-harms: its own oldest goes.
	victim, dropped = pushOne(q, elastic.Event{Principal: "flood", Payload: "f4"})
	if !dropped || victim != "flood" {
		t.Fatalf("victim = %q (dropped %v), want flood", victim, dropped)
	}
	// Another principal with nothing queued also evicts the hog.
	victim, dropped = pushOne(q, elastic.Event{Principal: "late", Payload: "l1"})
	if !dropped || victim != "flood" {
		t.Fatalf("victim = %q (dropped %v), want flood", victim, dropped)
	}
	// quiet's and late's events both survived the storm.
	var got []string
	for _, ev := range q.drain(nil) {
		got = append(got, ev.Principal+":"+ev.Payload)
	}
	want := "flood:f,quiet:q1,flood:f4,late:l1"
	if strings.Join(got, ",") != want {
		t.Fatalf("drained %v, want %s", got, want)
	}
}

// TestEventQueueVictimTie: when principals tie for the most queued
// events, the one whose oldest event comes first in the ring is the
// victim, whatever order they first queued in before a drain.
func TestEventQueueVictimTie(t *testing.T) {
	q := newEventQueue(4, nil, nil)
	for _, p := range []string{"b", "a"} {
		pushOne(q, elastic.Event{Principal: p})
	}
	q.drain(nil)
	for _, p := range []string{"a", "b", "b", "a"} {
		pushOne(q, elastic.Event{Principal: p, Payload: "1"})
	}
	victim, dropped := pushOne(q, elastic.Event{Principal: "c", Payload: "c"})
	if !dropped || victim != "a" {
		t.Fatalf("victim = %q (dropped %v), want a, whose oldest event is first", victim, dropped)
	}
	// Now b holds two to a's one: b loses its oldest.
	if victim, _ = pushOne(q, elastic.Event{Principal: "d", Payload: "d"}); victim != "b" {
		t.Fatalf("victim = %q, want b, the hog", victim)
	}
	var got []string
	for _, ev := range q.drain(nil) {
		got = append(got, ev.Principal)
	}
	if want := "b,a,c,d"; strings.Join(got, ",") != want {
		t.Fatalf("drained %v, want %s", got, want)
	}
}
