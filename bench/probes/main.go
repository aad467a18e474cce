// Command mbdprobes times each layer's public entry points in process, on
// the inputs the end-to-end workloads generate, and prints one JSON object
// of per-layer metrics. It is the only part of the benchmark that imports
// the repository's internal packages beyond the manager-side clients, and
// it is a program of its own: when a refactor changes one of those APIs
// this program stops building, a traced run says so, and the end-to-end
// driver and its numbers are untouched.
//
// Every probe measures from outside, by timing calls; tracing inside the
// program is a later issue. The server it builds mirrors what cmd/mbdserver
// composes (4-interface device, default route, MCVA bindings, views on,
// MaxDPIs 256), so a probe's cost is the cost the stock binary pays.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"mbd/bench/gen"
	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
	"mbd/internal/elastic"
	"mbd/internal/federation"
	"mbd/internal/mbd"
	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/rds"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
	"mbd/internal/vdl/incr"
)

const (
	principal = "mgr"
	// historyDepth is the finished-instance history the instantiate and
	// footprint probes build; one delegate_cold round is about this deep.
	historyDepth = 4000
	// idleAgents is how many parked agents the idle-footprint probe holds.
	// The stock binary allows 256 live instances.
	idleAgents = 200
)

// sink keeps results the compiler must not discard.
var sink any

type prober struct {
	in    *gen.Inputs
	wl    string
	scale float64
	out   map[string]float64
}

// n scales an iteration count, keeping enough for a median.
func (p *prober) n(full int) int { return max(int(float64(full)*p.scale), 5) }

func main() {
	wl := flag.String("workload", "agent_rpc", "workload whose generated inputs the probes replay")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	scale := flag.Float64("scale", 1, "share of the full iteration counts to run")
	flag.Parse()
	p := &prober{in: gen.New(*seed<<8 | 0xfd), wl: *wl, scale: *scale, out: map[string]float64{}}
	for _, probe := range []func() error{
		p.rdsCodec, p.dplPipeline, p.elasticAdmit, p.elasticInstances, p.elasticEvents,
		p.vmAndHostcalls, p.mibTree, p.snmpAgent, p.snmpClient, p.views, p.rollup,
	} {
		if err := probe(); err != nil {
			fmt.Fprintln(os.Stderr, "mbdprobes:", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(p.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbdprobes:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", b)
}

// perCall runs fn n times in five batches and returns the median batch's
// nanoseconds per call. i counts calls across all batches.
func perCall(n int, fn func(i int)) float64 {
	const batches = 5
	per := max(n/batches, 1)
	means := make([]float64, batches)
	i := 0
	for b := range means {
		t0 := time.Now()
		for k := 0; k < per; k++ {
			fn(i)
			i++
		}
		means[b] = float64(time.Since(t0)) / float64(per)
	}
	sort.Float64s(means)
	return means[batches/2]
}

// medianCall times each of n calls and returns the median in nanoseconds.
func medianCall(n int, fn func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn(i)
		d[i] = float64(time.Since(t0))
	}
	sort.Float64s(d)
	return d[len(d)/2]
}

// allocs returns heap objects and bytes allocated per call of fn.
func allocs(n int, fn func(i int)) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// rssKB is this process's resident set after returning freed memory to the
// system, so growth between two readings is memory still held.
func rssKB() (float64, error) {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

// stockServer composes what cmd/mbdserver composes, without sockets.
func stockServer() (*mbd.Server, *mib.Device, error) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "bench-router", Interfaces: 4, Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	dev.AddRoute([4]byte{0, 0, 0, 0}, 1, 1, [4]byte{10, 0, 0, 254})
	mcva := vdl.NewMCVA(dev.Tree(), vdl.MIB2())
	if err := dev.Tree().Mount(vdl.OIDViews, mcva.Handler()); err != nil {
		return nil, nil, err
	}
	srv, err := mbd.New(mbd.Config{Device: dev, ExtraBindings: mcva.Bindings(), EnableViews: true, MaxDPIs: 256})
	if err != nil {
		return nil, nil, err
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.2, BroadcastFraction: 0.04, ErrorRate: 0.002, CollisionRate: 0.03})
	if err := srv.Agent().MountStats(dev.Tree()); err != nil {
		srv.Stop()
		return nil, nil, err
	}
	// Counters past 2^20, as on any device that has been up for a minute:
	// arithmetic on them leaves Go's small-integer box cache.
	dev.Advance(2 * time.Minute)
	return srv, dev, nil
}

// messages builds the RDS messages one op of the workload puts on the
// wire, requests signed as the client signs them.
func (p *prober) messages(auth *rds.Authenticator) ([]*rds.Message, error) {
	c := p.in.Cold(0)
	nonce := p.in.Nonce(0)
	event := func(dpi, kind, payload string) *rds.Message {
		return &rds.Message{Op: rds.OpEvent, Name: dpi, Entry: kind, Payload: []byte(payload), TimeMS: 123456, Principal: principal}
	}
	reply := func(seq uint32, name string) *rds.Message {
		return &rds.Message{Op: rds.OpReply, Seq: seq, OK: true, Name: name}
	}
	var msgs []*rds.Message
	switch p.wl {
	case "delegate_cold":
		msgs = []*rds.Message{
			{Op: rds.OpDelegate, Seq: 7, Principal: principal, Name: c.Name, Lang: "dpl", Payload: []byte(c.Source)},
			reply(7, ""),
			{Op: rds.OpInstantiate, Seq: 8, Principal: principal, Name: c.Name, Entry: "main"},
			reply(8, c.Name+"#1"),
			event(c.Name+"#1", "report", c.Tag+" score=0.123456"),
			event(c.Name+"#1", "exit", c.Return),
		}
	case "table_stream":
		msgs = []*rds.Message{
			{Op: rds.OpSend, Seq: 7, Principal: principal, Name: "tableagent#1", Payload: []byte(nonce + ":128")},
			reply(7, ""),
		}
		for j := 0; j < gen.TableRows; j++ {
			msgs = append(msgs, event("tableagent#1", "report",
				fmt.Sprintf("%s %d 1.3.6.1.2.1.2.2.1.10.%d = %d", nonce, j, 1+j%4, 29912345+j)))
		}
	default:
		// agent_rpc's exchange; snmp_poll puts no RDS message on the wire,
		// so it is given the same one for the codec figures.
		msgs = []*rds.Message{
			{Op: rds.OpSend, Seq: 7, Principal: principal, Name: "rpcagent#1", Payload: []byte(nonce)},
			reply(7, ""),
			event("rpcagent#1", "report", nonce+" n=68 in=119649280 out=95719424 ipk=223564 opk=186284 h=-2.173000"),
		}
	}
	for _, m := range msgs {
		if m.Op != rds.OpReply && m.Op != rds.OpEvent {
			if err := auth.Sign(m); err != nil {
				return nil, err
			}
		}
	}
	return msgs, nil
}

func (p *prober) rdsCodec() error {
	auth := rds.NewAuthenticator()
	auth.SetSecret(principal, "bench-s3cret")
	msgs, err := p.messages(auth)
	if err != nil {
		return err
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		if frames[i], err = m.AppendFrame(nil); err != nil {
			return err
		}
	}
	var buf []byte
	k := len(msgs)
	encode := func(i int) { buf, _ = msgs[i%k].AppendFrame(buf[:0]) }
	decode := func(i int) { sink, _ = rds.Decode(frames[i%k][4:]) }
	p.out["rds.codec.encode_ns"] = perCall(p.n(200_000), encode)
	p.out["rds.codec.decode_ns"] = perCall(p.n(200_000), decode)
	p.out["rds.codec.allocs_per_msg"], _ = allocs(p.n(20_000), func(i int) { encode(i); decode(i) })
	// Sign and verify the workload's first request, as client and server do.
	req := msgs[0]
	var verr error
	p.out["rds.auth.sign_verify_ns"] = perCall(p.n(100_000), func(int) {
		_ = auth.Sign(req)
		if err := auth.Verify(req); err != nil {
			verr = err
		}
	})
	return verr
}

func (p *prober) dplPipeline() error {
	srv, _, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	b := srv.Process().Bindings()
	n := p.n(300)
	cold := make([]gen.Cold, n)
	for i := range cold {
		cold[i] = p.in.Cold(i)
	}
	progs := make([]*dpl.Program, n)
	for i, c := range cold {
		if progs[i], err = dpl.Parse(c.Source); err != nil {
			return fmt.Errorf("parse: %w", err)
		}
	}
	p.out["dpl.parse_us"] = medianCall(n, func(i int) { sink, _ = dpl.Parse(cold[i].Source) }) / 1e3
	p.out["dpl.compile_us"] = medianCall(n, func(i int) {
		obj, err := dpl.Compile(progs[i], b)
		if err == nil {
			dpl.Optimize(obj)
		}
		sink = obj
	}) / 1e3
	p.out["dpl.analysis.analyze_us"] = medianCall(n, func(i int) { sink = analysis.Analyze(progs[i], b) }) / 1e3
	arts := make([]*dpl.CompiledProgram, n)
	for i, c := range cold {
		if arts[i], err = srv.Process().CompileProgram("dpl", c.Source); err != nil {
			return fmt.Errorf("compile program: %w", err)
		}
	}
	var bad error
	p.out["dpl.verify.verify_us"] = medianCall(n, func(i int) {
		if r := verify.Verify(arts[i], b); !r.OK() {
			bad = r.Err()
		}
	}) / 1e3
	return bad
}

func (p *prober) elasticAdmit() error {
	srv, _, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	proc := srv.Process()
	n := p.n(300)
	// Every source is new to this process, so every Delegate below is cold.
	cold := make([]gen.Cold, n)
	for i := range cold {
		cold[i] = p.in.Cold(10_000 + i)
	}
	var bad error
	note := func(err error) {
		if err != nil {
			bad = err
		}
	}
	half := n / 2
	p.out["elastic.admit_cold_us"] = medianCall(half, func(i int) {
		note(proc.Delegate(principal, cold[i].Name, "dpl", cold[i].Source))
	}) / 1e3
	p.out["elastic.admit_cold_allocs"], _ = allocs(n-half, func(i int) {
		note(proc.Delegate(principal, cold[half+i].Name, "dpl", cold[half+i].Source))
	})
	// The newest 64 sources are in the program cache (it holds 256).
	recent := cold[n-min(n, gen.NamePool):]
	p.out["elastic.admit_cached_us"] = medianCall(p.n(2000), func(i int) {
		c := recent[i%len(recent)]
		note(proc.Delegate(principal, c.Name, "dpl", c.Source))
	}) / 1e3
	blobs := make([][]byte, len(recent))
	for i, c := range recent {
		cp, err := proc.CompileProgram("dpl", c.Source)
		if err != nil {
			return err
		}
		if blobs[i], err = cp.Encode(); err != nil {
			return err
		}
	}
	p.out["elastic.admit_compiled_us"] = medianCall(p.n(2000), func(i int) {
		note(proc.DelegateCompiled(principal, recent[i%len(recent)].Name, blobs[i%len(blobs)]))
	}) / 1e3
	return bad
}

// elasticInstances measures what a finished or parked instance costs:
// instantiate-to-exit with no history and with a round's worth of it, the
// slope between the two, and the memory each kind of record holds.
func (p *prober) elasticInstances() error {
	srv, _, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	proc := srv.Process()
	ctx := context.Background()
	c := p.in.Cold(20_000)
	if err := proc.Delegate(principal, c.Name, "dpl", c.Source); err != nil {
		return err
	}
	var bad error
	// cycle runs one instance to its exit and removes its record, so the
	// history depth stays where the probe put it.
	cycle := func() {
		d, err := proc.Instantiate(principal, c.Name, "main")
		if err != nil {
			bad = err
			return
		}
		if _, err := d.Wait(ctx); err != nil {
			bad = err
		}
		proc.Remove(d.ID)
	}
	for i := 0; i < 50; i++ { // warm
		cycle()
	}
	h0 := medianCall(p.n(1000), func(int) { cycle() })
	// History is built the way delegate_cold builds it: every cycle
	// delegates a source of its own under a rotating name, so each finished
	// record pins the program it ran, not one shared program.
	depth := p.n(historyDepth)
	fresh := make([]gen.Cold, depth)
	for i := range fresh {
		fresh[i] = p.in.Cold(30_000 + i)
	}
	before, err := rssKB()
	if err != nil {
		return err
	}
	for i := 0; i < depth && bad == nil; i++ {
		f := fresh[i]
		if err := proc.Delegate(principal, f.Name, "dpl", f.Source); err != nil {
			return err
		}
		d, err := proc.Instantiate(principal, f.Name, "main")
		if err != nil {
			return err
		}
		if _, err := d.Wait(ctx); err != nil {
			return err
		}
	}
	fresh = nil
	if err := proc.Delegate(principal, c.Name, "dpl", c.Source); err != nil {
		return err
	}
	after, err := rssKB()
	if err != nil {
		return err
	}
	hN := medianCall(p.n(1000), func(int) { cycle() })
	p.out["elastic.instantiate_us_h0"] = h0 / 1e3
	p.out["elastic.instantiate_us_h4000"] = hN / 1e3
	p.out["elastic.history_slope_ns_per_dpi"] = (hN - h0) / float64(depth)
	p.out["elastic.rss_kb_per_finished_dpi"] = (after - before) / float64(depth)
	if bad != nil {
		return bad
	}

	// Idle footprint: agents parked in recv(-1), on a process of their own
	// so the history above is not in the reading.
	srv2, _, err := stockServer()
	if err != nil {
		return err
	}
	defer srv2.Stop()
	if err := srv2.Process().Delegate(principal, "parked", "dpl", gen.ParkedAgent); err != nil {
		return err
	}
	if before, err = rssKB(); err != nil {
		return err
	}
	agents := min(p.n(idleAgents), idleAgents)
	for i := 0; i < agents; i++ {
		if _, err := srv2.Process().Instantiate(principal, "parked", "main"); err != nil {
			return err
		}
	}
	time.Sleep(20 * time.Millisecond) // let every agent reach recv
	if after, err = rssKB(); err != nil {
		return err
	}
	p.out["elastic.rss_kb_per_idle_dpi"] = (after - before) / float64(agents)
	return nil
}

func (p *prober) elasticEvents() error {
	srv, _, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	proc := srv.Process()
	got := make(chan struct{}, 1)
	cancel := proc.Subscribe(func(ev elastic.Event) {
		if ev.Kind == elastic.EventReport && ev.DPI != "probe" {
			got <- struct{}{}
		}
	})
	defer cancel()
	payload := p.in.Nonce(0) + " 17 1.3.6.1.2.1.2.2.1.10.2 = 29912345"
	p.out["elastic.emit_ns"] = perCall(p.n(1_000_000), func(int) { proc.Publish("probe", elastic.EventReport, payload) })

	// Mailbox round trip: Send to an echo agent until its report reaches a
	// subscriber, with no socket in between.
	if err := proc.Delegate(principal, "echo", "dpl", gen.EchoAgent); err != nil {
		return err
	}
	d, err := proc.Instantiate(principal, "echo", "main")
	if err != nil {
		return err
	}
	var bad error
	rtt := func(i int) {
		if err := proc.Send(principal, d.ID, "x"); err != nil {
			bad = err
			return
		}
		<-got
	}
	for i := 0; i < 200; i++ {
		rtt(i)
	}
	p.out["elastic.mailbox_rtt_us"] = medianCall(p.n(20_000), rtt) / 1e3
	return bad
}

// vmAndHostcalls runs the agent_rpc agent's body, the code that workload
// runs per op, on a bare VM, and times the MIB host calls as a DPL loop
// minus the same loop left empty.
func (p *prober) vmAndHostcalls() error {
	srv, _, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	b := srv.Process().Bindings()
	ctx := context.Background()
	agent, err := dpl.Parse(p.in.RPCAgent())
	if err != nil {
		return err
	}
	obj, err := dpl.Compile(agent, b)
	if err != nil {
		return err
	}
	dpl.Optimize(obj)
	vm := dpl.NewVM(obj, b)
	var bad error
	body := func(int) {
		v, err := vm.Run(ctx, "body", "n0-00000000")
		if err != nil {
			bad = err
		}
		sink = v
	}
	body(0)
	if bad != nil {
		return fmt.Errorf("agent body: %w", bad)
	}
	if s, _ := sink.(string); !strings.Contains(s, fmt.Sprintf(" n=%d ", gen.IfTableCells)) {
		return fmt.Errorf("agent body returned %q, want n=%d", s, gen.IfTableCells)
	}
	steps0 := vm.Steps()
	body(0)
	steps := float64(vm.Steps() - steps0)
	run := perCall(p.n(5000), body)
	p.out["dpl.vm.run_us"] = run / 1e3
	p.out["dpl.vm.ns_per_step"] = run / steps
	p.out["dpl.vm.run_allocs"], _ = allocs(p.n(2000), body)

	loops, err := dpl.Parse(gen.HostcallLoop())
	if err != nil {
		return err
	}
	lobj, err := dpl.Compile(loops, b)
	if err != nil {
		return err
	}
	dpl.Optimize(lobj)
	lvm := dpl.NewVM(lobj, b)
	loop := func(fn string, iters int) float64 {
		return perCall(p.n(50), func(int) {
			if _, err := lvm.Run(ctx, fn, int64(iters)); err != nil {
				bad = err
			}
		}) / float64(iters)
	}
	p.out["mbd.hostcall_mibget_ns"] = loop("get", 1000) - loop("empty", 1000)
	p.out["mbd.hostcall_mibwalk_us"] = (loop("walk", 50) - loop("empty", 50)) / 1e3
	return bad
}

func (p *prober) mibTree() error {
	srv, dev, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	tree := dev.Tree()
	// The walk's own OIDs: every instance of the stock device.
	var names []oid.OID
	root := oid.MustParse("1.3.6.1")
	tree.Walk(root, func(o oid.OID, _ mib.Value) bool {
		names = append(names, o.Clone())
		return true
	})
	if len(names) == 0 {
		return fmt.Errorf("stock device has no instances")
	}
	k := len(names)
	var bad error
	p.out["mib.get_ns"] = perCall(p.n(500_000), func(i int) {
		v, err := tree.Get(names[i%k])
		if err != nil {
			bad = err
		}
		sink = v
	})
	var buf oid.OID
	p.out["mib.getnext_ns"] = perCall(p.n(500_000), func(i int) {
		next, _, err := tree.GetNextInto(buf[:0], names[i%k])
		if err == nil {
			buf = next
		}
	})
	p.out["mib.walk_ns_per_inst"] = perCall(p.n(20_000), func(int) {
		tree.Walk(root, func(oid.OID, mib.Value) bool { return true })
	}) / float64(k)

	// A 1,000-row tcpConnTable. No end-to-end workload reaches it: the
	// stock binary has no wire path that grows a table.
	deep, err := mib.NewDevice(mib.DeviceConfig{Name: "deep", Seed: 2})
	if err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		deep.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 80,
			RemAddr: [4]byte{1, byte(i / 256), byte(i % 256), 1}, RemPort: uint16(1024 + i)})
	}
	var rows []oid.OID
	col := mib.OIDTCPConnEntry.Append(mib.TCPConnState)
	deep.Tree().Walk(col, func(o oid.OID, _ mib.Value) bool {
		rows = append(rows, o.Clone())
		return true
	})
	if len(rows) != 1000 {
		return fmt.Errorf("deep table has %d rows, want 1000", len(rows))
	}
	p.out["mib.getnext_deep_ns"] = perCall(p.n(500_000), func(i int) {
		next, _, err := deep.Tree().GetNextInto(buf[:0], rows[(i*37)%len(rows)])
		if err == nil {
			buf = next
		}
	})
	return bad
}

// walkPackets encodes the GetNext requests of one full walk of tree and
// collects the agent's responses: the packets snmp_poll puts on the wire.
func walkPackets(agent *snmp.Agent, tree *mib.Tree) (reqs []*snmp.Message, reqPkts, respPkts [][]byte, err error) {
	cur := oid.MustParse("1.3.6.1")
	for id := int32(1); ; id++ {
		m := &snmp.Message{Community: "public", Type: snmp.PDUGetNextRequest, RequestID: 40_000 + id,
			VarBinds: []snmp.VarBind{{Name: cur, Value: mib.Null()}}}
		pkt, err := m.Encode()
		if err != nil {
			return nil, nil, nil, err
		}
		resp := agent.HandlePacket(pkt)
		if resp == nil {
			return nil, nil, nil, fmt.Errorf("agent dropped the request for %s", cur)
		}
		reqs, reqPkts, respPkts = append(reqs, m), append(reqPkts, pkt), append(respPkts, resp)
		next, _, err := tree.GetNext(cur)
		if err != nil {
			return reqs, reqPkts, respPkts, nil // that request fell off the end of the MIB
		}
		cur = next
	}
}

func (p *prober) snmpAgent() error {
	srv, dev, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	reqs, reqPkts, respPkts, err := walkPackets(srv.Agent(), dev.Tree())
	if err != nil {
		return err
	}
	k := len(reqPkts)
	var out []byte
	handle := func(i int) {
		if resp := srv.Agent().HandlePacketAppend(out[:0], reqPkts[i%k]); resp != nil {
			out = resp
		}
	}
	p.out["snmp.handle_getnext_ns"] = perCall(p.n(500_000), handle)
	p.out["snmp.handle_allocs"], _ = allocs(p.n(50_000), handle)
	var buf []byte
	p.out["snmp.codec.encode_ns"] = perCall(p.n(500_000), func(i int) {
		if b, err := reqs[i%k].AppendEncode(buf[:0]); err == nil {
			buf = b
		}
	})
	var bad error
	p.out["snmp.codec.decode_ns"] = perCall(p.n(500_000), func(i int) {
		m, err := snmp.Decode(respPkts[i%k])
		if err != nil {
			bad = err
		}
		sink = m
	})
	return bad
}

// snmpClient measures what the manager-side client allocates per GetNext
// over a real UDP socket, which is where its per-request buffer shows.
func (p *prober) snmpClient() error {
	srv, _, err := stockServer()
	if err != nil {
		return err
	}
	defer srv.Stop()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Agent().ServeUDP(ctx, pc) }()
	defer func() {
		cancel()
		<-done
	}()
	rt, err := snmp.DialUDP(pc.LocalAddr().String())
	if err != nil {
		return err
	}
	defer rt.Close()
	c := snmp.NewClient(rt, "public", snmp.WithRetries(0))
	start := oid.MustParse("1.3.6.1.2.1.1.3")
	var bad error
	get := func(int) {
		if _, err := c.GetNext(ctx, start); err != nil {
			bad = err
		}
	}
	get(0)
	// Both ends of the socket are in this process, so the figure includes
	// the agent's side; the agent's own share is snmp.handle_allocs.
	_, p.out["snmp.client.alloc_bytes_per_op"] = allocs(p.n(5000), get)
	return bad
}

const hotView = `view hot {
  from ipRouteTable;
  select ipRouteDest, ipRouteMetric1;
  where ipRouteMetric1 < 3;
}`

func routeDevice(rows int) (*mib.Device, error) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "bench-views", Seed: 3})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		dev.AddRoute([4]byte{10, byte(i / 250), byte(i % 250), 0}, 1+uint32(i%2), int64(i%7), [4]byte{10, 0, 0, 254})
	}
	return dev, nil
}

// views times the two view engines that ship in the stock binary. No
// end-to-end workload reaches them; these hold the line for the planned
// delta-kernel refactor.
func (p *prober) views() error {
	dev, err := routeDevice(1000)
	if err != nil {
		return err
	}
	def, err := vdl.Parse(hotView)
	if err != nil {
		return err
	}
	ev := vdl.NewEvaluator(dev.Tree(), vdl.MIB2())
	var bad error
	p.out["vdl.eval_ms"] = medianCall(p.n(100), func(int) {
		if _, err := ev.Eval(def); err != nil {
			bad = err
		}
	}) / 1e6

	a := incr.New(incr.Config{Tree: dev.Tree(), Schema: vdl.MIB2()})
	defer a.Close()
	if _, err := a.Define(hotView); err != nil {
		return err
	}
	if _, err := a.Query("hot"); err != nil {
		return err
	}
	p.out["vdl.incr.delta_us"] = perCall(p.n(50_000), func(i int) {
		dev.AddRoute([4]byte{10, 0, 1, 0}, 1, int64(1+i%6), [4]byte{10, 0, 0, 254})
		a.Pump()
	}) / 1e3
	p.out["vdl.incr.query_json_us"] = medianCall(p.n(300), func(int) {
		if _, err := a.QueryJSON("hot"); err != nil {
			bad = err
		}
	}) / 1e3
	if st := a.Stats(); st.DeltasFolded == 0 {
		return fmt.Errorf("incremental engine folded no delta: %+v", st)
	}

	// The v-mib walk: a 100-row view read cell by cell through the handler
	// the stock binary mounts at OIDViews.
	small, err := routeDevice(100)
	if err != nil {
		return err
	}
	m := vdl.NewMCVA(small.Tree(), vdl.MIB2())
	if _, err := m.Define(`view all { from ipRouteTable; select ipRouteDest, ipRouteMetric1; }`); err != nil {
		return err
	}
	if err := small.Tree().Mount(vdl.OIDViews, m.Handler()); err != nil {
		return err
	}
	cells := 0
	walk := func(int) {
		cells = 0
		cur := vdl.OIDViews
		for {
			next, _, err := small.Tree().GetNext(cur)
			if err != nil || !next.HasPrefix(vdl.OIDViews) {
				return
			}
			cells++
			cur = next
		}
	}
	p.out["vdl.mcva.walk_ms"] = medianCall(p.n(20), walk) / 1e6
	if cells < 200 {
		return fmt.Errorf("v-mib walk of a 100-row, 2-column view visited %d cells", cells)
	}
	return bad
}

func (p *prober) rollup() error {
	r := federation.NewRollup(federation.Sum())
	const members = 1000
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%04d", i)
		r.Report(names[i], "load", "1", int64(i))
	}
	p.out["federation.rollup_report_ns"] = perCall(p.n(500_000), func(i int) {
		r.Report(names[i%members], "load", strconv.Itoa(2+i%7), int64(members+i))
	})
	return nil
}
