// Command benchgate is an in-repo, dependency-free benchstat-style
// regression gate: it parses `go test -bench` output, condenses
// repeated runs (-count=N) to per-benchmark medians, and compares them
// against a committed JSON baseline.
//
// Usage:
//
//	go test -run xxx -bench <gated> -count=5 . | benchgate -update   # refresh baseline
//	go test -run xxx -bench <gated> -count=5 . | benchgate           # enforce
//	go test -run xxx -bench "$(benchgate -pattern)" -count=5 .       # <gated>, from the baseline
//
// -pattern prints the anchored regular expression matching exactly the
// baseline's benchmarks, so the gated set is written down once: in the
// baseline.
//
// The gate fails (exit 1) when any benchmark present in the baseline
//
//   - regresses in ns/op or in B/op by more than -threshold (default
//     15%; bytes catch a buffer grown where it used to be sized, which
//     moves B/op by a quarter and allocs/op by a handful), or
//   - allocates more per op than the baseline records (strict: any
//     increase in allocs/op fails, since the allocation-free hot paths
//     are an explicit design property), or
//   - is missing from the new output (a silently deleted benchmark
//     cannot guard anything).
//
// Benchmarks in the input but absent from the baseline are reported as
// informational and do not fail the gate; run -update to adopt them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference file (BENCH_baseline.json).
type Baseline struct {
	// Note documents provenance for humans reading the diff.
	Note       string               `json:"note,omitempty"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's condensed reference numbers.
type Benchmark struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// sample is one parsed result line.
type sample struct {
	ns, bytes, allocs float64
	hasMem            bool
}

// parseBench reads `go test -bench` output, grouping repeated runs by
// benchmark name (GOMAXPROCS suffix stripped).
func parseBench(r *bufio.Scanner) (map[string][]sample, error) {
	out := make(map[string][]sample)
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// Name  N  x ns/op  [y B/op  z allocs/op]  [extra metrics...]
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var s sample
		var err error
		if s.ns, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %v", line, err)
		}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				s.bytes, s.hasMem = v, true
			case "allocs/op":
				s.allocs, s.hasMem = v, true
			}
		}
		out[name] = append(out[name], s)
	}
	return out, r.Err()
}

// median condenses repeated runs; with few noisy samples the median is
// far more stable than the mean.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func condense(samples map[string][]sample) map[string]Benchmark {
	out := make(map[string]Benchmark, len(samples))
	for name, ss := range samples {
		var ns, by, al []float64
		for _, s := range ss {
			ns = append(ns, s.ns)
			by = append(by, s.bytes)
			al = append(al, s.allocs)
		}
		out[name] = Benchmark{NsPerOp: median(ns), BytesPerOp: median(by), AllocsPerOp: median(al)}
	}
	return out
}

// loadBaseline reads the committed baseline and its benchmark names in
// sorted order.
func loadBaseline(path string) (Baseline, []string, error) {
	var bl Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return bl, nil, err
	}
	if err := json.Unmarshal(data, &bl); err != nil {
		return bl, nil, fmt.Errorf("benchgate: parsing %s: %v", path, err)
	}
	names := make([]string, 0, len(bl.Benchmarks))
	for name := range bl.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	return bl, names, nil
}

// worse reports how far cur is above base, as a fraction of base. A zero
// base (an allocation-free benchmark's B/op) has no such fraction, and
// needs none: any rise from it is a rise in allocs/op, which fails alone.
func worse(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base
}

// regressed reports whether cur fails the gate against base: ns/op or
// B/op worse by more than threshold, or any increase in allocs/op.
func regressed(base, cur Benchmark, threshold float64) bool {
	return cur.AllocsPerOp > base.AllocsPerOp ||
		worse(base.NsPerOp, cur.NsPerOp) > threshold ||
		worse(base.BytesPerOp, cur.BytesPerOp) > threshold
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against (or write with -update)")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op or B/op regression before failing")
	note := flag.String("note", "", "provenance note stored in the baseline on -update")
	pattern := flag.Bool("pattern", false, "print the anchored -bench regexp of the baseline's benchmarks and exit")
	flag.Parse()

	if *pattern {
		_, names, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("^(%s)$\n", strings.Join(names, "|"))
		return
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	samples, err := parseBench(scanner)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results on stdin")
		os.Exit(2)
	}
	current := condense(samples)

	if *update {
		bl := Baseline{Note: *note, Benchmarks: current}
		if bl.Note == "" {
			bl.Note = "regenerate: go test -run xxx -bench <gated set> -count=5 . | go run ./cmd/benchgate -update"
		}
		data, err := json.MarshalIndent(&bl, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return
	}

	bl, names, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := false
	for _, name := range names {
		base := bl.Benchmarks[name]
		cur, ok := current[name]
		if !ok {
			fmt.Printf("FAIL %-32s missing from bench output\n", name)
			failed = true
			continue
		}
		status := "ok  "
		if regressed(base, cur, *threshold) {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-32s ns/op %10.1f -> %10.1f (%+6.1f%%)  B/op %6.0f -> %6.0f (%+6.1f%%)  allocs/op %3.0f -> %3.0f\n",
			status, name, base.NsPerOp, cur.NsPerOp, worse(base.NsPerOp, cur.NsPerOp)*100,
			base.BytesPerOp, cur.BytesPerOp, worse(base.BytesPerOp, cur.BytesPerOp)*100,
			base.AllocsPerOp, cur.AllocsPerOp)
	}
	for name := range current {
		if _, ok := bl.Benchmarks[name]; !ok {
			fmt.Printf("new  %-32s ns/op %10.1f (not gated; -update to adopt)\n", name, current[name].NsPerOp)
		}
	}
	if failed {
		fmt.Println("benchgate: regression gate FAILED")
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated benchmarks within threshold")
}
