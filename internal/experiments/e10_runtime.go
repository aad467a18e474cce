package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
)

// E10Config parameterizes the runtime scalability measurement.
type E10Config struct {
	// Counts sweeps concurrent DPIs per process (default 1..1000).
	Counts []int
	// MsgsPerDPI is the mailbox ping-pong depth per instance.
	MsgsPerDPI int
}

func (c *E10Config) defaults() {
	if len(c.Counts) == 0 {
		c.Counts = []int{1, 10, 100, 500, 1000}
	}
	if c.MsgsPerDPI <= 0 {
		c.MsgsPerDPI = 10
	}
}

// E10RuntimeScalability measures the real elastic process (wall-clock,
// not simulated): "A multithreaded elastic process presents a single
// unit for operating system enforced resource constraints." For each
// instance count the table reports delegation-to-running latency, the
// per-instance instantiation cost, and mailbox message throughput
// across all instances, plus the step-quota enforcement overhead.
func E10RuntimeScalability(cfg E10Config) (*Table, error) {
	cfg.defaults()
	t := &Table{
		ID:      "E10",
		Title:   "Elastic process scalability (real runtime, wall clock)",
		Headers: []string{"DPIs", "instantiate all", "per DPI", "msgs", "msg throughput", "total VM steps"},
	}
	src := `
func main() {
	var n = 0;
	while (true) {
		var m = recv(-1);
		if (m == "quit") { return n; }
		n += 1;
		report(m);
	}
}`
	for _, n := range cfg.Counts {
		proc := elastic.NewProcess(elastic.Config{MaxDPIs: n + 1, MailboxDepth: cfg.MsgsPerDPI + 2})
		if err := proc.Delegate("bench", "echo", "dpl", src); err != nil {
			return nil, err
		}
		// Count report events to know when all messages are consumed.
		// Subscribers run on the emitting DPI's goroutine, so the
		// counter must be atomic.
		done := make(chan struct{})
		var seen atomic.Int64
		expect := n * cfg.MsgsPerDPI
		cancel := proc.Subscribe(func(ev elastic.Event) {
			if ev.Kind == elastic.EventReport && seen.Add(1) == int64(expect) {
				close(done)
			}
		})

		start := time.Now()
		dpis := make([]*elastic.DPI, n)
		for i := range dpis {
			d, err := proc.Instantiate("bench", "echo", "main")
			if err != nil {
				return nil, err
			}
			dpis[i] = d
		}
		instantiated := time.Since(start)

		msgStart := time.Now()
		for round := 0; round < cfg.MsgsPerDPI; round++ {
			for _, d := range dpis {
				for {
					if err := proc.Send("bench", d.ID, fmt.Sprintf("m%d", round)); err == nil {
						break
					}
					time.Sleep(100 * time.Microsecond) // mailbox momentarily full
				}
			}
		}
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			return nil, fmt.Errorf("e10: %d DPIs never drained their mailboxes", n)
		}
		msgElapsed := time.Since(msgStart)
		cancel()

		var steps uint64
		for _, d := range dpis {
			if err := proc.Send("bench", d.ID, "quit"); err != nil {
				return nil, err
			}
		}
		for _, d := range dpis {
			if _, err := d.Wait(context.Background()); err != nil {
				return nil, err
			}
			steps += d.Steps()
		}
		proc.Stop()

		t.AddRow(
			fmt.Sprintf("%d", n),
			instantiated.Round(time.Microsecond).String(),
			(instantiated / time.Duration(n)).Round(time.Microsecond).String(),
			fmt.Sprintf("%d", expect),
			fmt.Sprintf("%.0f msg/s", float64(expect)/msgElapsed.Seconds()),
			fmt.Sprintf("%d", steps),
		)
	}
	t.AddNote("each DPI is a goroutine running the compiled echo agent; a message is mailbox delivery + VM wakeup + report event fan-out")
	over, err := quotaOverhead()
	if err != nil {
		return nil, err
	}
	slices.Sort(over)
	lo, med, hi := over[0], over[len(over)/2], over[len(over)-1]
	noise := ""
	if lo < 0 && hi > 0 {
		noise = ", within noise"
	}
	t.AddNote("step-quota enforcement overhead: median %+.1f%%, range %+.1f%% to %+.1f%% over %d interleaved pairs of a 1M-iteration loop with and without a quota%s",
		100*med, 100*lo, 100*hi, len(over), noise)
	return t, nil
}

// quotaOverhead times the same DP with and without a step quota — the
// cost of the elastic process's resource-constraint machinery — in
// interleaved pairs, so that scheduler and GC noise falls on both
// variants, and returns each pair's relative overhead.
func quotaOverhead() ([]float64, error) {
	b := dpl.Std()
	prog := dpl.MustCompile(`
func main() {
	var s = 0;
	for (var i = 0; i < 1000000; i += 1) { s += i; }
	return s;
}`, b)
	run := func(quota bool) (time.Duration, error) {
		var opts []dpl.VMOption
		if quota {
			opts = append(opts, dpl.WithMaxSteps(1<<62))
		}
		vm := dpl.NewVM(prog, b, opts...)
		start := time.Now()
		if _, err := vm.Run(context.Background(), "main"); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	// The variant that runs first alternates from pair to pair.
	over := make([]float64, 5)
	for i := range over {
		var d [2]time.Duration // without, with the quota
		for k := range d {
			q := (i + k) % 2
			var err error
			if d[q], err = run(q == 1); err != nil {
				return nil, err
			}
		}
		over[i] = d[1].Seconds()/d[0].Seconds() - 1
	}
	return over, nil
}
