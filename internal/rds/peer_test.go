package rds

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// TestPeerMessageRoundTrip frames and decodes each peer operation.
func TestPeerMessageRoundTrip(t *testing.T) {
	for _, m := range peerSeedMessages() {
		frame, err := m.AppendFrame(nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Op, err)
		}
		body, err := ReadFrame(strings.NewReader(string(frame)))
		if err != nil {
			t.Fatalf("%s: %v", m.Op, err)
		}
		got, err := Decode(body)
		if err != nil {
			t.Fatalf("%s: %v", m.Op, err)
		}
		if got.Op != m.Op || got.Name != m.Name || got.Entry != m.Entry ||
			string(got.Payload) != string(m.Payload) || got.TimeMS != m.TimeMS {
			t.Fatalf("%s diverged:\n got %+v\nwant %+v", m.Op, got, m)
		}
	}
	// The two retired codes (the committed refused_retired_op frame
	// carries the first) sit inside the assigned range and must be
	// refused like any unknown op.
	for _, op := range []Op{OpPeerJoin + 1, OpPeerDelegate + 1} {
		frame, err := (&Message{Op: op, Seq: 11, Name: "lan-a"}).AppendFrame(nil)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if _, err := Decode(frame[4:]); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("%s decoded: err = %v, want unknown op", op, err)
		}
	}
}

// peerSeedMessages are the canonical peer-op frames, shared by the
// round-trip test, the fuzz seeds, and the committed corpus generator
// (peerSeedNames gives their file names).
func peerSeedMessages() []*Message {
	return []*Message{
		{Op: OpPeerJoin, Seq: 10, Principal: "federation", Name: "lan-a", Entry: "campus", Payload: []byte("127.0.0.1:5501")},
		{Op: OpPeerDelegate, Seq: 13, Principal: "noc", Name: "agent", Lang: "dpl",
			Payload: []byte("func main() { return 1; }"), Entry: "main", Args: []string{"3", "s:x"}},
		{Op: OpReply, Seq: 13, OK: true, Payload: (&FanoutResult{
			DP: "agent",
			Outcomes: []FanoutOutcome{
				{Member: "noc", Domain: "campus", Addr: "local", OK: true, DPI: "agent#1"},
				{Member: "lan-a", Domain: "lan-a", Addr: "127.0.0.1:5501", Err: "rejected: DPL007"},
			},
		}).Encode()},
		{Op: OpPeerSync, Seq: 14, Principal: "federation", Name: "lan-a", Payload: (&SyncBatch{
			Reports: []SyncReport{{Key: "octet-rate", Value: "8192", TimeMS: 1234}},
			Bundles: []BundleStatus{{Lineage: "probe-suite", Hash: "ab12", Version: 2, Staged: 2}},
		}).Encode()},
		{Op: OpPeerBundleStage, Seq: 15, Principal: "noc", Name: "probe-suite", Entry: "ab12", Payload: (&Bundle{
			Lineage: "probe-suite", Version: 2, Items: []BundleItem{
				{DP: "agent", Lang: "dpl", Blob: []byte("func main() { return 1; }"), Entry: "main", Args: []string{"3"}},
			},
		}).Encode()},
		{Op: OpPeerBundleActivate, Seq: 16, Principal: "noc", Name: "probe-suite", Entry: "ab12"},
	}
}

// TestFanoutResultRoundTrip: the BER codec reproduces every field.
func TestFanoutResultRoundTrip(t *testing.T) {
	for _, r := range []*FanoutResult{
		{DP: "agent"},
		{DP: "x", Outcomes: []FanoutOutcome{{Member: "a", OK: true}}},
		{DP: "deep", Outcomes: []FanoutOutcome{
			{Member: "noc", Domain: "campus", Addr: "local", OK: true, DPI: "deep#3"},
			{Member: "lan-a", Domain: "lan-a", Addr: "10.0.0.2:5500", OK: false, Err: "transport: connection refused"},
			{Member: "lan-b", Domain: "lan-b", Addr: "10.0.0.3:5500", OK: true, DPI: "deep#1"},
		}},
	} {
		got, err := DecodeFanoutResult(r.Encode())
		if err != nil {
			t.Fatalf("%s: %v", r.DP, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, r)
		}
	}
	if acc, rej := (&FanoutResult{Outcomes: []FanoutOutcome{{OK: true}, {}, {OK: true}}}).Accepted(), (&FanoutResult{Outcomes: []FanoutOutcome{{OK: true}, {}, {OK: true}}}).Rejected(); acc != 2 || rej != 1 {
		t.Fatalf("Accepted/Rejected = %d/%d, want 2/1", acc, rej)
	}
}

// FuzzFanoutResult: arbitrary bytes must never panic the decoder, and
// whatever it accepts must re-encode to bytes that decode to a
// deep-equal result.
func FuzzFanoutResult(f *testing.F) {
	for _, r := range []*FanoutResult{
		{DP: "agent"},
		{DP: "deep", Outcomes: []FanoutOutcome{
			{Member: "noc", Domain: "campus", Addr: "local", OK: true, DPI: "deep#3"},
			{Member: "lan-a", Domain: "lan-a", Addr: "10.0.0.2:5500", Err: "no"},
		}},
	} {
		f.Add(r.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x00})
	f.Add(goldenFanout.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, DecodeFanoutResult)
	})
}

// TestPeerOpsWithoutHandler: a server with no PeerHandler refuses every
// peer operation with the federation-disabled error.
func TestPeerOpsWithoutHandler(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	addr := startListener(t, proc)
	c, err := Dial(addr, "mgr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for name, call := range map[string]func() error{
		"join": func() error { return c.PeerJoin(ctx, "m", "d", "addr") },
		"delegate": func() error {
			_, err := c.PeerDelegate(ctx, "dp", "func main() {}", "")
			return err
		},
		"status": func() error {
			_, err := c.DomainStatus(ctx)
			return err
		},
		"sync": func() error { return c.PeerSync(ctx, "m", &SyncBatch{}) },
		"bundle-stage": func() error {
			_, err := c.PeerBundleStage(ctx, "lineage", "hash", nil)
			return err
		},
		"bundle-activate": func() error {
			_, err := c.PeerBundleActivate(ctx, "lineage", "hash")
			return err
		},
	} {
		err := call()
		if err == nil || !strings.Contains(err.Error(), "federation not enabled") {
			t.Fatalf("%s on unfederated server: err = %v, want federation-disabled", name, err)
		}
	}
}

// fakePeerHandler records peer calls for dispatch tests.
type fakePeerHandler struct {
	mu        sync.Mutex
	joins     []string
	beats     int
	synced    []string
	staged    map[string][]byte // hash -> bundle payload
	activated []string
}

func (h *fakePeerHandler) PeerJoin(principal, member, domain, addr string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.joins = append(h.joins, fmt.Sprintf("%s/%s/%s/%s", principal, member, domain, addr))
	return nil
}

func (h *fakePeerHandler) PeerDelegate(ctx context.Context, principal, dp, lang, source, entry string, args []string) (*FanoutResult, error) {
	return &FanoutResult{DP: dp, Outcomes: []FanoutOutcome{
		{Member: "root", Domain: "d", Addr: "local", OK: true, DPI: dp + "#1"},
	}}, nil
}

func (h *fakePeerHandler) PeerSync(principal, member string, batch *SyncBatch) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if member == "stranger" {
		return errors.New("federation: unknown member stranger")
	}
	h.beats++
	for _, r := range batch.Reports {
		h.synced = append(h.synced, fmt.Sprintf("%s:%s=%s@%d", member, r.Key, r.Value, r.TimeMS))
	}
	return nil
}

func (h *fakePeerHandler) PeerBundleStage(ctx context.Context, principal, lineage, hash string, bundle []byte) (*StageResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.staged == nil {
		h.staged = make(map[string][]byte)
	}
	if len(bundle) == 0 {
		// Probe: only answer for hashes already held.
		if _, ok := h.staged[hash]; !ok {
			return nil, fmt.Errorf("federation: unknown bundle %s", hash)
		}
		return &StageResult{Lineage: lineage, Hash: hash, Outcomes: []StageOutcome{
			{Member: "root", Domain: "d", Addr: "local", OK: true, AlreadyStaged: true},
		}}, nil
	}
	h.staged[hash] = bundle
	return &StageResult{Lineage: lineage, Hash: hash, Outcomes: []StageOutcome{
		{Member: "root", Domain: "d", Addr: "local", OK: true, ArtifactBytes: uint64(len(bundle))},
	}}, nil
}

func (h *fakePeerHandler) PeerBundleActivate(ctx context.Context, principal, lineage, hash string) (*FanoutResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.staged[hash]; !ok {
		return nil, fmt.Errorf("federation: bundle %s not staged", hash)
	}
	h.activated = append(h.activated, lineage+"@"+hash)
	return &FanoutResult{DP: lineage, Outcomes: []FanoutOutcome{
		{Member: "root", Domain: "d", Addr: "local", OK: true},
	}}, nil
}

func (h *fakePeerHandler) StatusJSON() ([]byte, error) {
	return []byte(`{"domain":"d"}`), nil
}

// TestPeerOpsDispatch drives all peer operations through a live server
// into a PeerHandler and back.
func TestPeerOpsDispatch(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	h := &fakePeerHandler{}
	addr := startListener(t, proc, WithPeerHandler(h))
	c, err := Dial(addr, "federation")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := c.PeerJoin(ctx, "lan-a", "campus", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	// A bare beat is a sync frame with nothing in it.
	if err := c.PeerSync(ctx, "lan-a", &SyncBatch{}); err != nil {
		t.Fatal(err)
	}
	res, err := c.PeerDelegate(ctx, "agent", "func main() { return 1; }", "main", "3")
	if err != nil {
		t.Fatal(err)
	}
	if res.DP != "agent" || len(res.Outcomes) != 1 || !res.Outcomes[0].OK || res.Outcomes[0].DPI != "agent#1" {
		t.Fatalf("fanout result = %+v", res)
	}
	st, err := c.DomainStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st, `"domain":"d"`) {
		t.Fatalf("status = %q", st)
	}

	// Batched sync: one frame carries heartbeat + two rollup deltas.
	if err := c.PeerSync(ctx, "lan-a", &SyncBatch{Reports: []SyncReport{
		{Key: "k", Value: "43", TimeMS: 100},
		{Key: "j", Value: "7", TimeMS: 101},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.PeerSync(ctx, "stranger", &SyncBatch{}); err == nil || !strings.Contains(err.Error(), "unknown member") {
		t.Fatalf("stranger sync err = %v, want unknown member", err)
	}

	// Bundle lifecycle: probe miss -> full stage -> probe hit -> activate.
	raw := (&Bundle{Lineage: "probe-suite", Version: 1, Items: []BundleItem{
		{DP: "agent", Lang: "dpl", Blob: []byte("func main() { return 1; }")},
	}}).Encode()
	hash := HashBundle(raw)
	if _, err := c.PeerBundleStage(ctx, "probe-suite", hash, nil); err == nil || !strings.Contains(err.Error(), "unknown bundle") {
		t.Fatalf("probe before stage err = %v, want unknown bundle", err)
	}
	sr, err := c.PeerBundleStage(ctx, "probe-suite", hash, raw)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Hash != hash || sr.Staged() != 1 || sr.TransferredBytes() != uint64(len(raw)) {
		t.Fatalf("stage result = %+v", sr)
	}
	sr, err = c.PeerBundleStage(ctx, "probe-suite", hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.TransferredBytes() != 0 || !sr.Outcomes[0].AlreadyStaged {
		t.Fatalf("probe hit result = %+v", sr)
	}
	fr, err := c.PeerBundleActivate(ctx, "probe-suite", hash)
	if err != nil {
		t.Fatal(err)
	}
	if fr.DP != "probe-suite" || fr.Accepted() != 1 {
		t.Fatalf("activate result = %+v", fr)
	}
	if _, err := c.PeerBundleActivate(ctx, "probe-suite", "deadbeef"); err == nil || !strings.Contains(err.Error(), "not staged") {
		t.Fatalf("activate unstaged err = %v, want not staged", err)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.joins) != 1 || h.joins[0] != "federation/lan-a/campus/127.0.0.1:1" {
		t.Fatalf("joins = %v", h.joins)
	}
	if h.beats != 2 {
		t.Fatalf("beats = %d, want 2 (one empty sync + one carrying deltas)", h.beats)
	}
	if len(h.synced) != 2 || h.synced[0] != "lan-a:k=43@100" || h.synced[1] != "lan-a:j=7@101" {
		t.Fatalf("synced = %v", h.synced)
	}
	if len(h.activated) != 1 || h.activated[0] != "probe-suite@"+hash {
		t.Fatalf("activated = %v", h.activated)
	}
}

// TestReconnectThroughDrain is the regression the federation layer
// depends on: a server shutting down gracefully (WithDrainGrace) must
// not be mistaken for dead by a reconnecting client. The in-flight
// request during the drain is answered, the connection then closes at
// the grace deadline, and once a fresh server listens on the same
// address the client reconnects and keeps working — the Events channel
// never closes.
func TestReconnectThroughDrain(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := NewServer(proc, nil, WithDrainGrace(2*time.Second))
	sctx, scancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(sctx, l)
	}()

	var dials atomic.Int32
	dial := func() (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(first, "mgr",
		WithDialer(dial),
		WithReconnect(ReconnectConfig{BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond}))
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Subscribe(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(ctx, "rep", `func main() { report("alive"); return 1; }`); err != nil {
		t.Fatal(err)
	}

	// Begin the graceful shutdown with a slow request in flight: the
	// draining server must answer it, not drop it.
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Eval(ctx, `func main() { sleep(300); return 7; }`, "main")
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	scancel()
	if err := <-errCh; err != nil {
		t.Fatalf("in-flight request lost to draining server: %v", err)
	}
	<-done // server fully stopped; the client's connection is now gone

	// A replacement server appears on the same address (the warm
	// restart): the client must reconnect rather than having given up.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(proc, nil)
	sctx2, scancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		_ = srv2.Serve(sctx2, l2)
	}()
	t.Cleanup(func() {
		scancel2()
		<-done2
	})

	if _, err := c.Query(ctx, ""); err != nil {
		t.Fatalf("query after drain + restart: %v", err)
	}
	if n := dials.Load(); n < 2 {
		t.Fatalf("dialed %d connections, want a redial after the restart", n)
	}
	// Subscription replayed: events still flow on the original channel.
	if _, err := c.Instantiate(ctx, "rep", "main"); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("events channel closed across the drain")
			}
			if ev.Kind == "report" && ev.Payload == "alive" {
				return
			}
		case <-ctx.Done():
			t.Fatal("event after drain-restart never arrived")
		}
	}
}
