package mbd_test

// One benchmark per table/figure of the evaluation (DESIGN.md §4).
// Each iteration regenerates the experiment with a bounded
// configuration so the suite completes in seconds; cmd/benchrunner
// prints the full-size tables. The micro-benchmarks at the bottom
// cover the wire codecs and the DPL engines, including the BER-vs-raw
// framing ablation called out in DESIGN.md §5.

import (
	"context"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"mbd/internal/ber"
	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
	"mbd/internal/elastic"
	"mbd/internal/experiments"
	"mbd/internal/federation"
	"mbd/internal/mbd"
	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/rds"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

func runExperiment(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1PollingCapacity(b *testing.B) {
	runExperiment(b, experiments.E1PollingCapacity)
}

func BenchmarkE2HealthCentralVsDelegated(b *testing.B) {
	runExperiment(b, func() (*experiments.Table, error) {
		return experiments.E2HealthCentralVsDelegated(experiments.E2Config{
			DeviceCounts: []int{5, 25}, Horizon: 2 * time.Minute, Seed: 1,
		})
	})
}

func BenchmarkE2bPeriodicAblation(b *testing.B) {
	runExperiment(b, func() (*experiments.Table, error) {
		return experiments.E2HealthCentralVsDelegated(experiments.E2Config{
			DeviceCounts: []int{25}, Horizon: 2 * time.Minute, Periodic: true, Seed: 1,
		})
	})
}

func BenchmarkE3TableRetrieval(b *testing.B) {
	runExperiment(b, func() (*experiments.Table, error) {
		return experiments.E3TableRetrieval(experiments.E3Config{
			RowCounts: []int{100, 500}, Selectivities: []float64{0.1},
		})
	})
}

func BenchmarkE4LatencySweep(b *testing.B) {
	runExperiment(b, experiments.E4LatencySweep)
}

func BenchmarkE5DelegationAmortization(b *testing.B) {
	runExperiment(b, experiments.E5DelegationAmortization)
}

func BenchmarkE6IntrusionDetection(b *testing.B) {
	runExperiment(b, func() (*experiments.Table, error) {
		return experiments.E6IntrusionDetection(experiments.E6Config{
			PollIntervals: []time.Duration{30 * time.Second},
			MeanLives:     []time.Duration{2 * time.Second},
			Horizon:       2 * time.Minute,
			Sessions:      40,
		})
	})
}

func BenchmarkE7ViewEconomy(b *testing.B) {
	runExperiment(b, experiments.E7ViewEconomy)
}

func BenchmarkE8Snapshots(b *testing.B) {
	runExperiment(b, func() (*experiments.Table, error) {
		return experiments.E8Snapshots(experiments.E8Config{
			FlapPeriods: []time.Duration{100 * time.Millisecond},
			Walks:       10, Routes: 50,
		})
	})
}

func BenchmarkE9LMSTraining(b *testing.B) {
	runExperiment(b, experiments.E9LMSTraining)
}

func BenchmarkE10RuntimeScalability(b *testing.B) {
	runExperiment(b, func() (*experiments.Table, error) {
		return experiments.E10RuntimeScalability(experiments.E10Config{
			Counts: []int{1, 100}, MsgsPerDPI: 5,
		})
	})
}

func BenchmarkT1InterpreterOverhead(b *testing.B) {
	runExperiment(b, experiments.T1InterpreterOverhead)
}

// --- micro-benchmarks -------------------------------------------------------

func BenchmarkBEREncodeSNMPGet(b *testing.B) {
	names := []oid.OID{
		mib.OIDSysUpTime.Append(0),
		mib.OIDEnetRxOk.Append(0),
		mib.OIDIfEntry.Append(mib.IfInOctets, 1),
	}
	vbs := make([]snmp.VarBind, len(names))
	for i, n := range names {
		vbs[i] = snmp.VarBind{Name: n, Value: mib.Null()}
	}
	msg := &snmp.Message{Community: "public", Type: snmp.PDUGetRequest, RequestID: 9, VarBinds: vbs}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := msg.AppendEncode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

func BenchmarkBERDecodeSNMPGet(b *testing.B) {
	msg := &snmp.Message{
		Community: "public", Type: snmp.PDUGetResponse, RequestID: 9,
		VarBinds: []snmp.VarBind{
			{Name: mib.OIDSysUpTime.Append(0), Value: mib.TimeTicks(123456)},
			{Name: mib.OIDEnetRxOk.Append(0), Value: mib.Counter32(987654321)},
		},
	}
	pkt, err := msg.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var dec snmp.Decoder
	var out snmp.Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(pkt, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgentHandleGet(b *testing.B) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "bench", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	agent := snmp.NewAgent(dev.Tree(), "public")
	msg := &snmp.Message{
		Community: "public", Type: snmp.PDUGetRequest, RequestID: 1,
		VarBinds: []snmp.VarBind{{Name: mib.OIDSysUpTime.Append(0), Value: mib.Null()}},
	}
	pkt, err := msg.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp := agent.HandlePacketAppend(out[:0], pkt)
		if resp == nil {
			b.Fatal("request dropped")
		}
		out = resp
	}
}

// BenchmarkRDSBERHeader vs BenchmarkRDSRawFrame: the BER-header cost
// ablation (DESIGN.md §5). Raw framing is the 4-byte length prefix
// around an unencoded payload; the BER variant is the full RDS message
// encoding the prototype used.
func BenchmarkRDSBERHeader(b *testing.B) {
	payload := make([]byte, 512)
	msg := &rds.Message{Op: rds.OpSend, Seq: 7, Principal: "mgr", Name: "agent#1", Payload: payload}
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		enc := msg.Encode()
		total += rds.FrameSize(enc)
	}
	b.ReportMetric(float64(rds.FrameSize(msg.Encode())-4-len(payload)), "header-bytes")
}

func BenchmarkRDSRawFrame(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		total += rds.FrameSize(payload)
	}
	_ = total
	b.ReportMetric(4, "header-bytes")
}

func BenchmarkDPLCompile(b *testing.B) {
	src := `
func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main() { return fib(10); }`
	bindings := dpl.Std()
	prog, err := dpl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dpl.Compile(prog, bindings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the full static-analysis pipeline (CFG,
// dataflow, effect inference, cost) on a representative resident agent
// — the per-delegation admission overhead the server pays.
func BenchmarkAnalyze(b *testing.B) {
	src := `
var lastUp = 0;

func pct(n, d) {
	if (d == 0) { return 0.0; }
	return float(n) * 100.0 / float(d);
}

func scanIfaces() {
	var rows = mibWalk("1.3.6.1.2.1.2.2.1.10");
	var total = 0;
	for (var i = 0; i < len(rows); i += 1) {
		total += rows[i][1];
	}
	return total;
}

func main() {
	while (true) {
		var up = mibGet("1.3.6.1.2.1.1.3.0");
		if (up != nil && up < lastUp) {
			notify(sprintf("%s rebooted", sysname()));
		}
		lastUp = up;
		report(sprintf("octets=%d load=%f", scanIfaces(), pct(3, 7)));
		sleep(5000);
	}
}`
	bindings := analysis.LintBindings()
	prog, err := dpl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if errs := dpl.Check(prog, bindings); len(errs) > 0 {
		b.Fatal(errs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := analysis.Analyze(prog, bindings)
		if len(rep.Diags) != 0 {
			b.Fatal(rep.Diags)
		}
	}
}

// benchAdmitSource is the program used by the admission benchmarks:
// several functions and a loop, so a cold translation (parse, check,
// analyze, compile, optimize) does representative work.
const benchAdmitSource = `
func pct(n, d) {
	if (d == 0) { return 0.0; }
	return float(n) * 100.0 / float(d);
}
func score(k) {
	var total = 0;
	for (var i = 0; i < k; i += 1) { total += i * i; }
	return total;
}
func main() { return pct(score(10), 385); }`

// BenchmarkVerify measures standalone bytecode verification — the
// admission cost a federation child pays per cascaded artifact instead
// of a full source translation (compare BenchmarkDPLCompile +
// BenchmarkAnalyze).
func BenchmarkVerify(b *testing.B) {
	bindings := analysis.LintBindings()
	src := `
func main() {
	var total = 0;
	for (var i = 0; i < 100; i += 1) {
		total += mibGet("1.3.6.1.2.1.2.2.1.10." + i);
	}
	mibSet("1.3.6.1.2.1.1.4.0", total);
	return total;
}`
	prog, err := dpl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	obj, rep, err := analysis.Translate(prog, bindings)
	if err != nil {
		b.Fatal(err)
	}
	if dpl.HasErrors(rep.Diags) {
		b.Fatal(rep.Diags)
	}
	cp := &dpl.CompiledProgram{
		Version:    dpl.CompilerVersion,
		SourceHash: dpl.HashSource(src),
		Verdict:    rep.Verdict(),
		Object:     obj,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := verify.Verify(cp, bindings); !res.OK() {
			b.Fatal(res.Diags)
		}
	}
}

// BenchmarkAdmitCached vs BenchmarkAdmitCold: one source delegation
// through the elastic process with the content-addressed program cache
// warm versus disabled. The gap is the translation work the cache
// elides per re-delegation.
func BenchmarkAdmitCached(b *testing.B) {
	proc := elastic.NewProcess(elastic.Config{})
	defer proc.Stop()
	if err := proc.Delegate("mgr", "bench", "dpl", benchAdmitSource); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proc.Delegate("mgr", "bench", "dpl", benchAdmitSource); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdmitCold(b *testing.B) {
	proc := elastic.NewProcess(elastic.Config{ProgramCacheSize: -1})
	defer proc.Stop()
	b.ReportAllocs()
	// The process's own construction is no admission's: counted, its
	// few hundred allocations spread over b.N and tipped allocs/op.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proc.Delegate("mgr", "bench", "dpl", benchAdmitSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMStep measures steady-state dispatch cost: one op is one
// Run of a 200-iteration arithmetic loop (~1.3k executed instructions)
// on a reused VM. Its values stay below 256; BenchmarkVMStepCounters
// runs the same loop over production-sized values. Any alloc/op is VM
// machinery (frames, stacks, accounting), which the flat-frame engine
// keeps at zero.
func BenchmarkVMStep(b *testing.B) {
	bindings := dpl.Std()
	compiled := dpl.MustCompile(`
func main() {
	var x = 0;
	for (var i = 0; i < 200; i += 1) {
		x = (x + 7) % 100;
	}
	return x;
}`, bindings)
	dpl.Optimize(compiled)
	vm := dpl.NewVM(compiled, bindings)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(ctx, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMStringChain runs table_stream's report line, a five-operand
// string chain (prefix, separator, index, separator, cell), in one loop
// on a reused VM: one op is one chain. ADDC keeps the strings on the
// stack and ADDN builds the line in one exact-size allocation, so the
// op allocates once; pairwise, each of its four + allocated.
func BenchmarkVMStringChain(b *testing.B) {
	bindings := dpl.Std()
	compiled := dpl.MustCompile(`
func main(n) {
	var parts = split("c0ffee42:128", ":");
	var ids = ["0", "1", "2", "3"];
	var cells = ["1.3.6.1.2.1.1.1.0 = lab-router", "1.3.6.1.2.1.1.3.0 = 4294967296",
		"1.3.6.1.2.1.2.2.1.10.1 = 123456789", "1.3.6.1.2.1.2.2.1.16.1 = 987654321"];
	var line = "";
	for (var j = 0; j < n; j += 1) {
		line = parts[0] + " " + ids[j % 4] + " " + cells[j % 4];
	}
	return len(line);
}`, bindings)
	dpl.Optimize(compiled)
	vm := dpl.NewVM(compiled, bindings)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := vm.Run(context.Background(), "main", int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVMStepCounters is BenchmarkVMStep over the values a
// management agent computes with: counters past 2^32 and floats. They
// live in the Value itself, so the op allocates nothing (the result is a
// bool, which crosses the Run boundary unboxed too).
func BenchmarkVMStepCounters(b *testing.B) {
	bindings := dpl.Std()
	compiled := dpl.MustCompile(`
func main() {
	var x = 4294967296;
	var f = 123456789.5;
	for (var i = 0; i < 200; i += 1) {
		x = (x + 104729) % 8589934592;
		f = f * 1.000001 + 0.5;
	}
	return x > 0 && f > 0.0;
}`, bindings)
	dpl.Optimize(compiled)
	vm := dpl.NewVM(compiled, bindings)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(ctx, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentBody runs the agent_rpc workload's per-op code, the body
// of its resident agent (internal/mbd/testdata/agent_rpc.dpl, the
// benchmark's source for seed 1), on a stock server over a 4-interface
// device whose counters have run for two minutes: five mibGets, float
// arithmetic, one 68-row mibWalk with a split and an int per row, and
// one sprintf.
func BenchmarkAgentBody(b *testing.B) {
	src, err := os.ReadFile("internal/mbd/testdata/agent_rpc.dpl")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "bench", Interfaces: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.2, BroadcastFraction: 0.04, ErrorRate: 0.002, CollisionRate: 0.03})
	dev.Advance(2 * time.Minute)
	srv, err := mbd.New(mbd.Config{Device: dev, EnableViews: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	bindings := srv.Process().Bindings()
	compiled := dpl.MustCompile(string(src), bindings)
	dpl.Optimize(compiled)
	vm := dpl.NewVM(compiled, bindings)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(ctx, "body", "n0-00000000"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMCall measures user-function activation cost: 100 calls per
// op through a two-argument function, on a reused VM. The flat frame
// machine passes arguments in place on the shared value stack.
func BenchmarkVMCall(b *testing.B) {
	bindings := dpl.Std()
	compiled := dpl.MustCompile(`
func add(a, b) { return a + b; }
func main() {
	var t = 0;
	for (var i = 0; i < 100; i += 1) {
		t = add(t, i) % 50;
	}
	return t;
}`, bindings)
	dpl.Optimize(compiled)
	vm := dpl.NewVM(compiled, bindings)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(ctx, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMHostCall measures host-binding dispatch: 100 calls per op
// into a standard builtin, exercising the per-VM cached Env and the
// copy-free argument window into the value stack.
func BenchmarkVMHostCall(b *testing.B) {
	bindings := dpl.Std()
	compiled := dpl.MustCompile(`
func main() {
	var t = 0;
	for (var i = 0; i < 100; i += 1) {
		t = (t + len("ab")) % 90;
	}
	return t;
}`, bindings)
	dpl.Optimize(compiled)
	vm := dpl.NewVM(compiled, bindings)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(ctx, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPLVMFib(b *testing.B) {
	bindings := dpl.Std()
	compiled := dpl.MustCompile(`
func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main() { return fib(15); }`, bindings)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vm := dpl.NewVM(compiled, bindings)
		if _, err := vm.Run(ctx, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPLInterpFib(b *testing.B) {
	bindings := dpl.Std()
	prog, err := dpl.Parse(`
func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main() { return fib(15); }`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it, err := dpl.NewInterp(prog, bindings)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := it.Run(ctx, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBERWriterOID(b *testing.B) {
	o := oid.MustParse("1.3.6.1.2.1.2.2.1.10.4021")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w ber.Writer
		w.AppendOID(o)
	}
}

// benchConnDevice builds a device with a 1000-row TCP connection table,
// the deep-table workload for GetNext and walk benchmarks.
func benchConnDevice(b *testing.B) *mib.Device {
	b.Helper()
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "bench", Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		dev.OpenConn(mib.ConnID{
			LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 80,
			RemAddr: [4]byte{1, byte(i / 256), byte(i % 256), 1}, RemPort: uint16(1024 + i),
		})
	}
	return dev
}

func BenchmarkTreeGetNextDeepTable(b *testing.B) {
	dev := benchConnDevice(b)
	start := mib.OIDTCPConnEntry.Append(mib.TCPConnState)
	var buf oid.OID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _, err := dev.Tree().GetNextInto(buf[:0], start)
		if err != nil {
			b.Fatal(err)
		}
		buf = next
	}
}

// walkByGetNext retrieves the subtree under prefix one GetNext at a
// time — the classic SNMP walk loop that re-resolves the mount table
// and re-searches the table on every step. BenchmarkTreeWalkBulk
// measures the same retrieval through Tree.Walk's pinned-mount bulk
// path for comparison.
func walkByGetNext(tree *mib.Tree, prefix oid.OID) int {
	n := 0
	cur := append(oid.OID(nil), prefix...)
	spare := make(oid.OID, 0, 32)
	for {
		next, _, err := tree.GetNextInto(spare[:0], cur)
		if err != nil || !next.HasPrefix(prefix) {
			return n
		}
		n++
		spare, cur = cur, next
	}
}

func BenchmarkTreeWalkGetNext(b *testing.B) {
	dev := benchConnDevice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := walkByGetNext(dev.Tree(), mib.OIDTCPConnEntry); n < 1000 {
			b.Fatalf("walked %d instances", n)
		}
	}
}

func BenchmarkTreeWalkBulk(b *testing.B) {
	dev := benchConnDevice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := dev.Tree().Walk(mib.OIDTCPConnEntry, func(o oid.OID, v mib.Value) bool { return true })
		if n < 1000 {
			b.Fatalf("walked %d instances", n)
		}
	}
}

// BenchmarkRDSRoundTrip measures one full RDS request/reply exchange
// over loopback TCP — framing, BER codec, server dispatch and the
// per-connection buffered writer. wireB/op counts the bytes the client
// sent and received (Client.Bytes); warmSeq first takes the request
// numbers that fit one byte, so every timed request's costs the same.
func BenchmarkRDSRoundTrip(b *testing.B) {
	proc := elastic.NewProcess(elastic.Config{})
	defer proc.Stop()
	srv := rds.NewServer(proc, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, l) }()
	defer func() { cancel(); <-done }()
	cl, err := rds.Dial(l.Addr().String(), "mgr")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	query := func() {
		if _, err := cl.Query(ctx, ""); err != nil {
			b.Fatal(err)
		}
	}
	warmSeq(query)
	out0, in0 := cl.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.StopTimer()
	out, in := cl.Bytes()
	b.ReportMetric(float64(out-out0+in-in0)/float64(b.N), "wireB/op")
}

// warmSeq calls request until a fresh client's request numbers, which
// count up from 1, have left the range BER encodes in one byte, so a
// benchmark's wireB/op does not move with b.N.
func warmSeq(request func()) {
	for i := 0; i < 128; i++ {
		request()
	}
}

// BenchmarkEventFanout measures DPI event delivery through the server's
// bounded subscriber queues: one resident DPI reports a message per
// iteration, fanned out to three reading subscribers and one subscriber
// that never drains its socket (exercising the drop-oldest policy
// without stalling the emitter).
func BenchmarkEventFanout(b *testing.B) {
	proc := elastic.NewProcess(elastic.Config{})
	defer proc.Stop()
	srv := rds.NewServer(proc, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, l) }()
	defer func() { cancel(); <-done }()

	var readers []*rds.Client
	for i := 0; i < 3; i++ {
		cl, err := rds.Dial(l.Addr().String(), "mgr")
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Subscribe(ctx, ""); err != nil {
			b.Fatal(err)
		}
		readers = append(readers, cl)
	}
	// The stuck subscriber: subscribes, then never reads its socket
	// again, so the server-side queue must absorb or drop its events.
	stuck, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer stuck.Close()
	sub := &rds.Message{Op: rds.OpSubscribe, Seq: 1, Principal: "mgr"}
	frame, err := sub.AppendFrame(nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := stuck.Write(frame); err != nil {
		b.Fatal(err)
	}
	if _, err := rds.ReadFrame(stuck); err != nil { // the subscribe reply
		b.Fatal(err)
	}

	cl := readers[0]
	if err := cl.Delegate(ctx, "echo", `
func main() { while (true) { report(recv(-1)); } }`); err != nil {
		b.Fatal(err)
	}
	id, err := cl.Instantiate(ctx, "echo", "main")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Send(ctx, id, "e"); err != nil {
			b.Fatal(err)
		}
		for {
			ev, ok := <-cl.Events()
			if !ok {
				b.Fatal("event stream closed")
			}
			if ev.Kind == "report" {
				break
			}
		}
	}
}

// BenchmarkEventBurst measures the report → socket path at table_stream
// shape: one Send makes a resident DPI emit 128 reports, which cross
// loopback to one subscribed rds.Client. writes/op counts the server's
// socket writes (reply plus event batches) from rds_writes_total;
// wireB/op counts the bytes the client sent and received (Client.Bytes),
// once warmSeq has taken the one-byte request numbers.
func BenchmarkEventBurst(b *testing.B) {
	const burst = 128
	proc := elastic.NewProcess(elastic.Config{})
	defer proc.Stop()
	srv := rds.NewServer(proc, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, l) }()
	defer func() { cancel(); <-done }()

	cl, err := rds.Dial(l.Addr().String(), "mgr")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Subscribe(ctx, ""); err != nil {
		b.Fatal(err)
	}
	if err := cl.Delegate(ctx, "burst", fmt.Sprintf(`
func main() {
	while (true) {
		var m = recv(-1);
		for (var j = 0; j < %d; j += 1) { report(m + " " + str(j)); }
	}
}`, burst)); err != nil {
		b.Fatal(err)
	}
	id, err := cl.Instantiate(ctx, "burst", "main")
	if err != nil {
		b.Fatal(err)
	}
	writes := func() uint64 {
		for _, s := range proc.Obs().Flatten() {
			if s.Name == "rds_writes_total" {
				return s.Value()
			}
		}
		b.Fatal("rds_writes_total not registered")
		return 0
	}
	wire := func() uint64 {
		out, in := cl.Bytes()
		return out + in
	}
	send := func() {
		if err := cl.Send(ctx, id, "row"); err != nil {
			b.Fatal(err)
		}
		for n := 0; n < burst; {
			ev, ok := <-cl.Events()
			if !ok {
				b.Fatal("event stream closed")
			}
			if ev.Kind == "report" {
				n++
			}
		}
	}
	warmSeq(send)
	b.ReportAllocs()
	b.ResetTimer()
	w0, b0 := writes(), wire()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	b.ReportMetric(float64(writes()-w0)/float64(b.N), "writes/op")
	b.ReportMetric(float64(wire()-b0)/float64(b.N), "wireB/op")
}

// BenchmarkRollupDelta measures incremental rollup maintenance: one
// member's report folded into a key already materialized from 1000
// contributors. The delta path visits O(1) members per report; compare
// the full recombine a non-delta combiner pays (BenchmarkRollupDelta
// divided into the contributor count approximates the old cost).
func BenchmarkRollupDelta(b *testing.B) {
	r := federation.NewRollup(federation.Sum())
	const members = 1000
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%04d", i)
		r.Report(names[i], "load", "1", int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Report(names[i%members], "load", "2", int64(members+i))
	}
}

// BenchmarkPeerHeartbeatBatch measures one coalesced sync frame over
// loopback TCP: a single OpPeerSync round trip carrying the heartbeat
// plus 32 rollup deltas — the per-beat upstream cost of a federation
// child, amortized across everything the frame carries.
func BenchmarkPeerHeartbeatBatch(b *testing.B) {
	proc := elastic.NewProcess(elastic.Config{})
	defer proc.Stop()
	node, err := federation.New(federation.Config{
		Name: "root", Domain: "bench", Proc: proc,
		Advertise: "127.0.0.1:0", Combiner: federation.Sum(),
		HeartbeatInterval: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	node.Start()
	defer node.Stop()
	srv := rds.NewServer(proc, nil, rds.WithPeerHandler(node))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, l) }()
	defer func() { cancel(); <-done }()
	cl, err := rds.Dial(l.Addr().String(), "federation")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PeerJoin(ctx, "child", "lan", "127.0.0.1:9"); err != nil {
		b.Fatal(err)
	}
	batch := &rds.SyncBatch{}
	for i := 0; i < 32; i++ {
		batch.Reports = append(batch.Reports, rds.SyncReport{
			Key: fmt.Sprintf("k%02d", i), Value: "7", TimeMS: int64(i),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.PeerSync(ctx, "child", batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitQuota is BenchmarkAdmitCached with tenant quotas
// switched on: the delta between the two is the full quota bookkeeping
// on the admission path (repository-byte admit plus ledger updates).
func BenchmarkAdmitQuota(b *testing.B) {
	proc := elastic.NewProcess(elastic.Config{Quota: elastic.Quota{
		MaxLiveDPIs:     64,
		StepsPerSec:     1 << 30,
		EventsPerSec:    1 << 20,
		RepositoryBytes: 1 << 20,
	}})
	defer proc.Stop()
	if err := proc.Delegate("mgr", "bench", "dpl", benchAdmitSource); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proc.Delegate("mgr", "bench", "dpl", benchAdmitSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedFairness: two single-DPI tenants contend for one run
// slot with a small quantum; one op runs both bounded loops to
// completion, so the number amortizes a full weighted-fair rotation —
// park, grant, wake — over a few dozen quanta. It gates the
// scheduler's slot-switch overhead.
func BenchmarkSchedFairness(b *testing.B) {
	proc := elastic.NewProcess(elastic.Config{SchedWorkers: 1, SchedQuantum: 512})
	defer proc.Stop()
	src := `
func main() {
	var x = 0;
	for (var i = 0; i < 500; i += 1) { x += 1; }
	return x;
}`
	if err := proc.Delegate("a", "loop", "dpl", src); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d1, err := proc.Instantiate("a", "loop", "main")
		if err != nil {
			b.Fatal(err)
		}
		d2, err := proc.Instantiate("b", "loop", "main")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d1.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := d2.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		proc.Remove(d1.ID)
		proc.Remove(d2.ID)
	}
}

// benchRouteTable returns a device whose ipRouteTable holds n rows.
func benchRouteTable(b *testing.B, n int) *mib.Device {
	b.Helper()
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "bench-views", Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dev.AddRoute([4]byte{10, byte(i / 250), byte(i % 250), 0}, 1+uint32(i%2), int64(i%7), [4]byte{10, 0, 0, 254})
	}
	return dev
}

const benchViewSrc = `view hot {
  from ipRouteTable;
  select ipRouteDest, ipRouteMetric1;
  where ipRouteMetric1 < 3;
}`

// BenchmarkViewDelta measures continuous view maintenance: one route
// update folded into a standing view over a 1000-row ipRouteTable.
// The per-write cost is O(delta) — independent of base-table size.
// Compare BenchmarkViewRecompute, the from-scratch Eval that the same
// freshness would cost on the same table.
func BenchmarkViewDelta(b *testing.B) {
	dev := benchRouteTable(b, 1000)
	a := vdl.NewMCVA(dev.Tree(), vdl.MIB2())
	defer a.Close()
	if _, err := a.Define(benchViewSrc); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Query("hot"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.AddRoute([4]byte{10, 0, 1, 0}, 1, int64(1+i%6), [4]byte{10, 0, 0, 254})
		a.Pump()
	}
	b.StopTimer()
	st := a.Stats()
	if st.Recomputes != 0 || st.ChangesLost != 0 {
		b.Fatalf("fallback engaged during delta benchmark: %+v", st)
	}
	if st.DeltasFolded == 0 {
		b.Fatal("no deltas folded")
	}
}

// BenchmarkViewWalk measures a plain manager's read path: one full
// GetNext walk of the v-mib over a 1000-row, 2-column view (2000
// instances per op). The view is maintained, so the walk evaluates
// nothing — each GetNext is a positional lookup in the standing result.
func BenchmarkViewWalk(b *testing.B) {
	dev := benchRouteTable(b, 1000)
	a := vdl.NewMCVA(dev.Tree(), vdl.MIB2())
	defer a.Close()
	if _, err := a.Define(`view all { from ipRouteTable; select ipRouteDest, ipRouteMetric1; }`); err != nil {
		b.Fatal(err)
	}
	tree := dev.Tree()
	if err := tree.Mount(vdl.OIDViews, a.Handler()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := 0
		for cur := vdl.OIDViews; ; cells++ {
			next, _, err := tree.GetNext(cur)
			if err != nil || !next.HasPrefix(vdl.OIDViews) {
				break
			}
			cur = next
		}
		if cells != 2000 {
			b.Fatalf("walk visited %d instances, want 2000", cells)
		}
	}
}

// BenchmarkViewRecompute is the denominator for BenchmarkViewDelta's
// O(delta) claim: evaluating the identical view from scratch over the
// identical 1000-row table, once per iteration.
func BenchmarkViewRecompute(b *testing.B) {
	dev := benchRouteTable(b, 1000)
	def, err := vdl.Parse(benchViewSrc)
	if err != nil {
		b.Fatal(err)
	}
	ev := vdl.NewEvaluator(dev.Tree(), vdl.MIB2())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(def); err != nil {
			b.Fatal(err)
		}
	}
}
