package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one reading of the server's registry through the RDS stats op:
// series name, labels included, to value.
type scrape map[string]float64

// parseScrape reads Prometheus text exposition. Histogram buckets are
// skipped: only sums and counts are used.
func parseScrape(text string) scrape {
	out := scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is how far series name moved between two scrapes.
func delta(before, after scrape, name string) float64 {
	return after[name] - before[name]
}

// deltaMean is the mean of histogram family over the interval, in the
// histogram's own unit (seconds), or 0 when nothing was observed.
func deltaMean(before, after scrape, family string) float64 {
	n := delta(before, after, family+"_count")
	if n <= 0 {
		return 0
	}
	return delta(before, after, family+"_sum") / n
}

// rdsRequestsExcept sums the per-op RDS request counters, leaving out the
// named op. The harness's own stats scrapes are requests too.
func rdsRequestsExcept(s scrape, skip string) float64 {
	var total float64
	for name, v := range s {
		if strings.HasPrefix(name, "rds_requests_total{") && !strings.Contains(name, `op="`+skip+`"`) {
			total += v
		}
	}
	return total
}

// percentile returns the p-th percentile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// sortedMicros converts nanosecond samples to sorted microseconds.
func sortedMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}
