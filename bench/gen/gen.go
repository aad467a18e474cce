// Package gen makes every input the benchmark feeds the server, from a
// seed. It imports nothing from the repository, so both the end-to-end
// driver and the layer probes can share it and no internal API change can
// break it. The same seed always yields the same sources, nonces and name
// order; the server sees only what this package produced.
package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// NamePool is how many program names delegate_cold rotates over, so the
// server's repository stays bounded while every source is new.
const NamePool = 64

// TableRows is the rows one table_stream op asks for.
const TableRows = 128

// IfTableCells is what the agent_rpc agent must count in ifTable on the
// stock 4-interface device: 17 columns by 4 rows.
const IfTableCells = 68

// The private segment counters the paper's health formula reads.
const (
	oidRxOk    = "1.3.6.1.4.1.45.1.3.2.1.0"
	oidColl    = "1.3.6.1.4.1.45.1.3.2.2.0"
	oidBcast   = "1.3.6.1.4.1.45.1.3.2.3.0"
	oidPkts    = "1.3.6.1.4.1.45.1.3.2.4.0"
	oidErrs    = "1.3.6.1.4.1.45.1.3.2.5.0"
	oidIfEntry = "1.3.6.1.2.1.2.2.1"
	oidMIB2    = "1.3.6.1.2.1"
)

// Inputs is one workload's generated input set.
type Inputs struct {
	Seed int64
	rng  *rand.Rand
	// tagBase makes delegate_cold tags unique to the seed as well as to
	// the op, so two runs never share a program-cache key.
	tagBase string
	// weights are the seeded health-formula constants folded into the
	// resident agents' source.
	weights [5]float64
}

// New returns the input generator for seed.
func New(seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{Seed: seed, rng: rng, tagBase: fmt.Sprintf("s%d-%06x", seed, rng.Intn(1<<24))}
	for i := range in.weights {
		in.weights[i] = weight(rng)
	}
	return in
}

// weight draws a health-formula weight in [0.5, 5.5) with three decimals,
// so its printed form has a fixed shape and source sizes stay comparable.
func weight(rng *rand.Rand) float64 {
	return float64(500+rng.Intn(5000)) / 1000
}

// Nonce returns the i-th request nonce: seeded, unique within a run and
// free of the ':' that table_stream uses as its separator.
func (in *Inputs) Nonce(i int) string {
	return fmt.Sprintf("n%d-%08x", i, in.rng.Uint32())
}

// Cold is one delegate_cold op's input: a source no earlier op used, the
// tag its report must carry and the value its exit event must render.
type Cold struct {
	Name   string
	Source string
	Tag    string
	Return string
}

// Cold generates op i's health function: about forty lines, five MIB
// reads, float arithmetic under seeded weights, one report and an integer
// return. The tag and the weights make the text unique, so the server's
// program cache can never hit.
func (in *Inputs) Cold(i int) Cold {
	tag := fmt.Sprintf("%s-%d", in.tagBase, i)
	ret := 1000 + in.rng.Intn(9000)
	var w [5]float64
	for k := range w {
		w[k] = weight(in.rng)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// health function %s\n", tag)
	fmt.Fprintf(&b, "var tag = %q;\n", tag)
	fmt.Fprintf(&b, "var wU = %.3f;\nvar wC = %.3f;\nvar wB = %.3f;\nvar wE = %.3f;\nvar bias = %.3f;\n",
		w[0], w[1], w[2], w[3], w[4])
	b.WriteString(`
func ratio(part, whole) {
	if (whole <= 0) {
		return 0.0;
	}
	return float(part) / float(whole);
}

func clamp(x) {
	if (x < 0.0) {
		return 0.0;
	}
	if (x > 100.0) {
		return 100.0;
	}
	return x;
}

func score() {
`)
	fmt.Fprintf(&b, "\tvar ok = mibGet(%q);\n", oidRxOk)
	fmt.Fprintf(&b, "\tvar coll = mibGet(%q);\n", oidColl)
	fmt.Fprintf(&b, "\tvar bcast = mibGet(%q);\n", oidBcast)
	fmt.Fprintf(&b, "\tvar pkts = mibGet(%q);\n", oidPkts)
	fmt.Fprintf(&b, "\tvar errs = mibGet(%q);\n", oidErrs)
	b.WriteString(`	var u = float(ok) / 10000000.0;
	var c = ratio(coll, pkts);
	var bc = ratio(bcast, pkts);
	var e = ratio(errs, pkts);
	return clamp(wU * u + wC * c + wB * bc + wE * e - bias);
}

func main() {
	var s = score();
	report(sprintf("%s score=%f", tag, s));
`)
	fmt.Fprintf(&b, "\treturn %d;\n}\n", ret)
	return Cold{Name: fmt.Sprintf("dc%02d", i%NamePool), Source: b.String(), Tag: tag, Return: fmt.Sprint(ret)}
}

// RPCAgent is the resident agent behind agent_rpc. Each message runs
// body: the health formula over Counter32 deltas (five mibGet, float
// arithmetic), then a summary of ifTable from one mibWalk (split and int
// per row, integer sums over counter-sized values) rendered by sprintf
// into a single line. One computed report stands in for a 97-GetNext walk.
// body is a function of its own so the dpl.vm probe can run exactly the
// code the workload runs. The agent reports "ready" once it is parked.
func (in *Inputs) RPCAgent() string {
	w := in.weights
	var b strings.Builder
	b.WriteString("// agent_rpc resident agent\n")
	b.WriteString("var pOk = 0; var pColl = 0; var pBcast = 0; var pPkts = 0; var pErrs = 0;\n")
	fmt.Fprintf(&b, "var wU = %.3f; var wC = %.3f; var wB = %.3f; var wE = %.3f; var bias = %.3f;\n",
		w[0], w[1], w[2], w[3], w[4])
	b.WriteString(`
func main() {
	report("ready");
	while (true) {
		var m = recv(-1);
		if (m == "quit") {
			return 0;
		}
		report(body(m));
	}
}

func body(m) {
`)
	fmt.Fprintf(&b, "\tvar ok = mibGet(%q);\n", oidRxOk)
	fmt.Fprintf(&b, "\tvar coll = mibGet(%q);\n", oidColl)
	fmt.Fprintf(&b, "\tvar bcast = mibGet(%q);\n", oidBcast)
	fmt.Fprintf(&b, "\tvar pkts = mibGet(%q);\n", oidPkts)
	fmt.Fprintf(&b, "\tvar errs = mibGet(%q);\n", oidErrs)
	b.WriteString(`	var u = float(ok - pOk) / 10000000.0;
	var dp = float(pkts - pPkts);
	var c = 0.0; var bc = 0.0; var e = 0.0;
	if (dp > 0.0) {
		c = float(coll - pColl) / dp;
		bc = float(bcast - pBcast) / dp;
		e = float(errs - pErrs) / dp;
	}
	var h = wU * u + wC * c + wB * bc + wE * e - bias;
	pOk = ok; pColl = coll; pBcast = bcast; pPkts = pkts; pErrs = errs;
`)
	fmt.Fprintf(&b, "\tvar rows = mibWalk(%q);\n", oidIfEntry)
	b.WriteString(`	var n = len(rows);
	var inOct = 0; var outOct = 0; var inPk = 0; var outPk = 0;
	for (var i = 0; i < n; i += 1) {
		var parts = split(rows[i][0], ".");
		var col = int(parts[9]);
		if (col == 10) { inOct += rows[i][1]; }
		if (col == 16) { outOct += rows[i][1]; }
		if (col == 11) { inPk += rows[i][1]; }
		if (col == 17) { outPk += rows[i][1]; }
	}
	return sprintf("%s n=%d in=%d out=%d ipk=%d opk=%d h=%f", m, n, inOct, outOct, inPk, outPk, h);
}
`)
	return b.String()
}

// TableAgent is the resident agent behind table_stream. It walks MIB-II
// once at start-up and keeps the cells as ready-made strings, so a request
// "nonce:N" costs almost no VM work per row: N reports of
// "nonce index cell". What the workload then measures is the event path.
func TableAgent() string {
	var b strings.Builder
	b.WriteString("// table_stream resident agent\nvar cells = [];\n\nfunc main() {\n")
	fmt.Fprintf(&b, "\tvar w = mibWalk(%q);\n", oidMIB2)
	b.WriteString(`	for (var i = 0; i < len(w); i += 1) {
		cells = append(cells, sprintf("%s = %v", w[i][0], w[i][1]));
	}
	report("ready");
	while (true) {
		var m = recv(-1);
		if (m == "quit") {
			return 0;
		}
		var parts = split(m, ":");
		var n = int(parts[1]);
		var k = len(cells);
		for (var j = 0; j < n; j += 1) {
			report(parts[0] + " " + str(j) + " " + cells[j % k]);
		}
	}
}
`)
	return b.String()
}

// ParkedAgent blocks in recv(-1) for ever. It is the one DPI behind the
// null-RTT Query and the unit of the idle-DPI footprint probe.
const ParkedAgent = `func main() {
	recv(-1);
	return 0;
}
`

// EchoAgent reports every message back. It is the echo floor agent_rpc is
// compared against and the body of the mailbox round-trip probe.
const EchoAgent = `func main() {
	while (true) {
		var m = recv(-1);
		if (m == "quit") {
			return 0;
		}
		report(m);
	}
}
`

// HostcallLoop is the program behind the mbd host-call probes: each
// function runs its call n times, and empty is the loop alone, whose cost
// is subtracted.
func HostcallLoop() string {
	return fmt.Sprintf(`func empty(n) {
	for (var i = 0; i < n; i += 1) {
	}
	return n;
}

func get(n) {
	for (var i = 0; i < n; i += 1) {
		mibGet(%q);
	}
	return n;
}

func walk(n) {
	for (var i = 0; i < n; i += 1) {
		mibWalk(%q);
	}
	return n;
}
`, oidRxOk, oidIfEntry)
}
