// Command mbdbench is the repository's wire-to-wire benchmark. It builds
// the stock cmd/mbdserver, runs it as a child process on loopback TCP (RDS,
// MD5 authentication on) and UDP (SNMP), and drives it only through the
// manager-side clients. See README.md beside this file for the workload
// and metric catalogue and for how to compare two commits.
//
// This package is the end-to-end driver. It imports internal/rds,
// internal/snmp and internal/oid and nothing else from the repository, so
// a refactor of any other package cannot take the end-to-end numbers down.
// The in-process layer probes are a separate program under probes/, built
// and run only for a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mbd/bench/gen"
)

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// catalogue is BENCHMARK.json. The harness reads its names and units from
// the file, so what it prints and what the file promises cannot drift: a
// metric the file lists but the run did not produce, or the reverse, ends
// the run with an error.
type catalogue struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalogue(root string) (*catalogue, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// value is one metric as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract with whoever
// runs the benchmark.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// spread is one metric's round values folded for people: the median that
// is reported and the range it came from.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// workloadRun is everything one workload produced in one invocation.
type workloadRun struct {
	w          *workload
	rounds     []*roundResult
	traced     *roundResult
	e2e        map[string]spread
	layer      map[string]float64
	violations []string
}

func (r *workloadRun) counts() (attempted, failed int) {
	for _, rr := range r.rounds {
		attempted += rr.attempted()
		failed += rr.failed
	}
	if r.traced != nil {
		attempted += r.traced.attempted()
		failed += r.traced.failed
	}
	return attempted, failed
}

func (r *workloadRun) failRatio() float64 {
	a, f := r.counts()
	return float64(f) / float64(max(a, 1))
}

// maxFailRatio is the share of failed, refused, timed-out or out-of-order
// ops above which a run is wrong, whatever else it measured.
const maxFailRatio = 0.01

func (r *workloadRun) correct() bool {
	return len(r.violations) == 0 && r.failRatio() <= maxFailRatio
}

type config struct {
	root     string
	names    []string
	seed     int64
	seconds  float64
	rounds   int
	trace    bool
	quick    bool
	out      io.Writer
	buildDur time.Duration
	bin      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json and cmd/mbdserver)")
	name := fs.String("workload", "all", "workload to run, or all (rounds then interleave across workloads)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload, split over the rounds (default: run_seconds of BENCHMARK.json)")
	rounds := fs.Int("rounds", 3, "measured rounds per workload, each against a fresh server")
	trace := fs.Int("trace", 0, "0: measured rounds, end-to-end metrics; 1: also the traced round, extras and layer probes, per-layer metrics")
	quick := fs.Bool("quick", false, "smoke-test shape: one short round, short idle window, few probe iterations")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end suite twice on one build and compare against the bounds")
	record := fs.String("record", "", "also write medians, spreads and the machine record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cat, err := loadCatalogue(*root)
	if err != nil {
		fmt.Fprintln(stderr, "mbdbench:", err)
		return 2
	}
	cfg := &config{root: *root, seed: *seed, seconds: *seconds, rounds: *rounds, trace: *trace != 0, quick: *quick, out: stdout}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(cat.RunSeconds)
	}
	if cfg.quick {
		cfg.rounds, cfg.seconds = 1, 0.5
	}
	if *name == "all" {
		for _, w := range workloads {
			cfg.names = append(cfg.names, w.name)
		}
	} else if workloadByName(*name) != nil {
		cfg.names = []string{*name}
	} else {
		fmt.Fprintf(stderr, "mbdbench: unknown workload %q\n", *name)
		return 2
	}
	if cfg.bin, cfg.buildDur, err = buildServer(cfg.root); err != nil {
		fmt.Fprintln(stderr, "mbdbench:", err)
		return 1
	}
	mach := machineRecord(cfg)
	mach.print(stdout)

	if *selfcheck {
		return selfCheck(cfg, cat, stderr)
	}
	runs, err := suite(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mbdbench:", err)
		return 1
	}
	code := 0
	results := map[string]result{}
	for _, r := range runs {
		res, err := r.result(cat, cfg.trace)
		if err != nil {
			fmt.Fprintf(stderr, "mbdbench: %s: %v\n", r.w.name, err)
			return 1
		}
		r.print(stdout, cat, cfg.trace)
		if !res.Correct {
			code = 1
		}
		results[r.w.name] = res
	}
	if *record != "" {
		if err := writeRecord(*record, mach, runs, cfg.trace); err != nil {
			fmt.Fprintln(stderr, "mbdbench:", err)
			return 1
		}
	}
	// One workload prints the contract's object; all of them print one
	// such object per workload under its name.
	var last any = results
	if len(runs) == 1 {
		last = results[runs[0].w.name]
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "mbdbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return code
}

// suite runs every selected workload. Rounds interleave across workloads
// (w1, w2, w3, w4, w1, …) so a slow phase of the shared machine does not
// land on one of them.
func suite(cfg *config) ([]*workloadRun, error) {
	runs := make([]*workloadRun, len(cfg.names))
	for i, n := range cfg.names {
		runs[i] = &workloadRun{w: workloadByName(n)}
	}
	sh := shape{seconds: cfg.seconds / float64(cfg.rounds)}
	for round := 0; round < cfg.rounds; round++ {
		for _, r := range runs {
			rr, err := runRound(cfg.bin, r.w, gen.New(cfg.seed<<8|int64(round)), sh)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", r.w.name, round+1, err)
			}
			r.rounds = append(r.rounds, rr)
			r.violations = append(r.violations, rr.violations...)
		}
	}
	for _, r := range runs {
		r.foldE2E()
	}
	if !cfg.trace {
		return runs, nil
	}
	sh.traced, sh.idle = true, idleWindow
	scale := 1.0
	if cfg.quick {
		sh.idle, scale = 200*time.Millisecond, 0.05
	}
	// Neither the extras readings nor the probe build depend on the
	// workload, so a run with several workloads takes them once.
	ex, err := runExtras(cfg.bin, gen.New(cfg.seed<<8|0xfe), scale)
	if err != nil {
		return nil, fmt.Errorf("extras: %w", err)
	}
	probeBin, _, err := goBuild(cfg.root, filepath.Join(cfg.root, "bench"), "./probes", "mbdprobes")
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		tr, err := runRound(cfg.bin, r.w, gen.New(cfg.seed<<8|0xff), sh)
		if err != nil {
			return nil, fmt.Errorf("%s traced round: %w", r.w.name, err)
		}
		r.traced = tr
		r.violations = append(r.violations, tr.violations...)
		probes, err := runProbes(probeBin, cfg.seed, r.w, scale)
		if err != nil {
			return nil, fmt.Errorf("%s probes: %w", r.w.name, err)
		}
		r.foldLayers(cfg, ex, probes)
		if err := r.writeSpans(cfg); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// foldE2E reduces the measured rounds to a median and a range per metric.
func (r *workloadRun) foldE2E() {
	byName := map[string][]float64{}
	for _, rr := range r.rounds {
		for k, v := range rr.e2e() {
			byName[k] = append(byName[k], v)
		}
	}
	r.e2e = map[string]spread{}
	for k, vs := range byName {
		lo, hi := minMax(vs)
		r.e2e[k] = spread{Median: median(vs), Min: lo, Max: hi}
	}
}

// runProbes runs the probe program on the workload's own inputs. It is a
// process of its own, so the driver never links the packages it reaches
// into.
func runProbes(bin string, seed int64, w *workload, scale float64) (map[string]float64, error) {
	cmd := exec.Command(bin, "-workload", w.name, "-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(scale))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	probes := map[string]float64{}
	if err := json.Unmarshal(out, &probes); err != nil {
		return nil, fmt.Errorf("probe output: %w", err)
	}
	return probes, nil
}

// foldLayers assembles every per-layer metric of this workload from the
// traced round, the measured rounds it is compared with, the extras server
// and the probe program.
func (r *workloadRun) foldLayers(cfg *config, ex extras, probes map[string]float64) {
	tr := r.traced
	m := probes
	// Client steps: every name is reported on every workload; a step the
	// workload does not have reads 0.
	for _, name := range stepMetric {
		m[name] = 0
	}
	for k, v := range tr.rec.stepMedians() {
		m[k] = v
	}
	ops := float64(tr.ops)
	m["client.op_p99_us"] = tr.p(0.99)
	m["client.generator_cpu_ms_per_kop"] = float64(tr.genCPU) / float64(time.Millisecond) / ops * 1000
	m["fail_ratio"] = r.failRatio()

	m["mbdserver.build_s"] = cfg.buildDur.Seconds()
	m["mbdserver.start_ms"] = float64(tr.start) / float64(time.Millisecond)
	m["mbdserver.idle_rss_mb"] = tr.idleRSSMB
	m["mbdserver.idle_cpu_ms_per_s"] = tr.idleCPUms
	m["mbdserver.stderr_bytes_per_op"] = float64(tr.stderrBytes) / ops
	m["mbdserver.goroutines"] = tr.after["go_goroutines"]

	sent := delta(tr.before, tr.after, "rds_events_sent_total")
	m["rds.null_rtt_us"] = ex.nullRTTUS
	m["rds.dispatch_us_mean"] = deltaMean(tr.before, tr.after, "rds_op_duration_seconds") * 1e6
	m["rds.event_marginal_us"] = ex.eventMarginal
	m["rds.events_sent"] = sent
	m["rds.events_dropped"] = delta(tr.before, tr.after, "rds_events_dropped_total")
	m["rds.client_silent_drops"] = silentDrops(tr.before, tr.after, tr.events)
	m["rds.bytes_out_per_event"] = 0
	if sent > 0 {
		// The opening scrape's own reply is written after its counters
		// were read, so it falls inside the interval; take it out.
		m["rds.bytes_out_per_event"] = (delta(tr.before, tr.after, "rds_bytes_out_total") - float64(tr.scrapeReply)) / sent
	}

	m["elastic.source_analyses"] = delta(tr.before, tr.after, "elastic_source_analyses_total")
	m["elastic.progcache_hits"] = delta(tr.before, tr.after, "elastic_progcache_hits_total")
	m["elastic.sched_grants"] = delta(tr.before, tr.after, "elastic_sched_grants_total")
	m["elastic.cached_cycle_p50_us"] = ex.cachedCycleUS
	m["snmp.serve_us_mean"] = deltaMean(tr.before, tr.after, "snmp_serve_duration_seconds") * 1e6

	m["obs.on_p50_ratio"] = tr.p(0.5) / r.e2e["op_p50_us"].Median
	m["obs.on_cpu_ratio"] = tr.cpuMSPerKop() / r.e2e["server_cpu_ms_per_kop"].Median
	m["obs.scrape_ms"] = ex.scrapeMS

	// What the probes can account for of the traced op: the RDS round-trip
	// floor once per request/reply exchange, plus the workload's own sum of
	// layer costs. The rest of op_p50_us is still invisible from outside.
	covered := m["rds.null_rtt_us"]*float64(r.w.roundTrips) + r.w.covered(m, tr.attempted())
	m["trace.coverage_ratio"] = covered / tr.p(0.5)
	r.layer = m
}

// writeSpans stores the traced round's spans and the step-sum check.
func (r *workloadRun) writeSpans(cfg *config) error {
	sum := spanSummary{Workload: r.w.name, Seed: cfg.seed}
	r.traced.rec.summarize(&sum, r.traced.p(0.5))
	return r.traced.rec.write(filepath.Join(cfg.root, "bench", "out"), sum)
}

// result checks the run against the catalogue and renders the contract's
// object: every metric of the requested kind, each with its unit, and
// nothing the catalogue does not list.
func (r *workloadRun) result(cat *catalogue, trace bool) (result, error) {
	defs, have := cat.EndToEnd, map[string]float64{}
	if trace {
		defs, have = cat.PerLayer, r.layer
	} else {
		for k, s := range r.e2e {
			have[k] = s.Median
		}
	}
	res := result{Correct: r.correct(), Metrics: map[string]value{}}
	res.Attempted, res.Failed = r.counts()
	for _, d := range defs {
		v, ok := have[d.Name]
		if !ok {
			return res, fmt.Errorf("BENCHMARK.json lists %s but the run did not produce it", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s is not finite: %v", d.Name, v)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for k := range have {
		if _, ok := res.Metrics[k]; !ok {
			return res, fmt.Errorf("the run produced %s but BENCHMARK.json does not list it", k)
		}
	}
	return res, nil
}

// print renders the run for people.
func (r *workloadRun) print(w io.Writer, cat *catalogue, trace bool) {
	a, f := r.counts()
	fmt.Fprintf(w, "\n== %s: %d rounds, %d ops attempted, %d failed\n", r.w.name, len(r.rounds), a, f)
	for _, cw := range cat.Workloads {
		if cw.Name == r.w.name {
			fmt.Fprintf(w, "   %s\n", cw.Why)
		}
	}
	for _, d := range cat.EndToEnd {
		s := r.e2e[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s (rounds %.4f – %.4f; %s is better, bound %.0f%%)\n",
			d.Name, s.Median, d.Unit, s.Min, s.Max, d.Better, d.Bound*100)
	}
	if trace {
		fmt.Fprintf(w, "  -- per layer (traced round: %d ops, p50 %.2f µs; spans in bench/out/spans-%s.tsv)\n",
			r.traced.ops, r.traced.p(0.5), r.w.name)
		for _, d := range cat.PerLayer {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, r.layer[d.Name], d.Unit)
		}
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	if !r.correct() {
		fmt.Fprintf(w, "  RESULT: wrong (fail ratio %.4f, limit %.2f; %d violations)\n", r.failRatio(), maxFailRatio, len(r.violations))
	}
}

// machine records where and on what the numbers were taken.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	Rounds     int     `json:"rounds"`
	BuildS     float64 `json:"mbdserver_build_s"`
	Transport  string  `json:"transport"`
}

func machineRecord(cfg *config) machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Rounds: cfg.rounds,
		BuildS:    cfg.buildDur.Seconds(),
		Transport: "host loopback (127.0.0.1), not a real link; the managed device is simulated inside mbdserver"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// A benchmark checkout need not be a git repository.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if b, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	return m
}

func (m machine) print(w io.Writer) {
	fmt.Fprintf(w, "mbdbench: nproc=%d GOMAXPROCS=%d (default, both processes) %s kernel=%s commit=%s seed=%d\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.Kernel, m.Commit, m.Seed)
	fmt.Fprintf(w, "mbdbench: %.0f s per workload over %d rounds, each against a fresh server; go build of mbdserver took %.2f s\n",
		m.Seconds, m.Rounds, m.BuildS)
	fmt.Fprintf(w, "mbdbench: traffic crosses the %s\n", m.Transport)
}

// writeRecord stores a trajectory point: the machine and, per workload,
// each end-to-end metric's median and range and each per-layer value.
func writeRecord(path string, mach machine, runs []*workloadRun, trace bool) error {
	type point struct {
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		EndToEnd  map[string]spread  `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	}
	doc := struct {
		Machine   machine          `json:"machine"`
		Workloads map[string]point `json:"workloads"`
	}{Machine: mach, Workloads: map[string]point{}}
	for _, r := range runs {
		p := point{EndToEnd: r.e2e}
		p.Attempted, p.Failed = r.counts()
		if trace {
			p.PerLayer = r.layer
		}
		doc.Workloads[r.w.name] = p
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfCheck runs the end-to-end suite twice on the same build and prints,
// for every workload and metric, how far the second run's median is from
// the first beside the metric's bound. Any difference in the worse
// direction beyond the bound fails the check: a benchmark that disagrees
// with itself cannot referee a change.
func selfCheck(cfg *config, cat *catalogue, stderr io.Writer) int {
	cfg.trace = false
	var passes [2][]*workloadRun
	for i := range passes {
		runs, err := suite(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "mbdbench:", err)
			return 1
		}
		for _, r := range runs {
			if !r.correct() {
				fmt.Fprintf(stderr, "mbdbench: %s was wrong in pass %d: %v\n", r.w.name, i+1, r.violations)
				return 1
			}
		}
		passes[i] = runs
	}
	code := 0
	fmt.Fprintf(cfg.out, "\n%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, first := range passes[0] {
		second := passes[1][i]
		for _, d := range cat.EndToEnd {
			a, b := first.e2e[d.Name].Median, second.e2e[d.Name].Median
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > d.Bound {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Fprintf(cfg.out, "%-14s %-24s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				first.w.name, d.Name, a, b, worse*100, d.Bound*100, verdict)
		}
	}
	if code != 0 {
		fmt.Fprintln(stderr, "mbdbench: selfcheck: two runs of the same build disagree by more than a bound")
	}
	return code
}
