package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// step names one blocking client call inside an op. The steps of a
// workload are consecutive timestamps with no gaps between them. The op
// itself is timed from just outside: it adds a few µs before its first step
// and after its last, which spanSummary reports as the untiled remainder.
type step uint8

const (
	stepDelegate step = iota
	stepInstantiate
	stepFirstEvent
	stepExit
	stepSend
	stepReport
	stepFirstRow
	stepLastRow
	stepSNMPEncode
	stepSNMPRTT
	stepSNMPDecode
	numSteps
)

// stepMetric is the per-layer metric each step's median is reported under.
var stepMetric = [numSteps]string{
	stepDelegate:    "client.delegate_rtt_us",
	stepInstantiate: "client.instantiate_rtt_us",
	stepFirstEvent:  "client.first_event_wait_us",
	stepExit:        "client.exit_wait_us",
	stepSend:        "client.send_rtt_us",
	stepReport:      "client.report_wait_us",
	stepFirstRow:    "client.first_row_wait_us",
	stepLastRow:     "client.last_row_wait_us",
	stepSNMPEncode:  "client.snmp_encode_us",
	stepSNMPRTT:     "client.snmp_udp_rtt_us",
	stepSNMPDecode:  "client.snmp_decode_us",
}

// span is one recorded client call. parent is the op it belongs to; the
// op's own span carries parent -1. Times are nanoseconds since the
// recorder's base.
type span struct {
	op         int32
	step       int8 // -1 for the op span itself
	start, end int64
}

// recorder keeps the traced round's spans in memory until the round ends.
// Measured rounds pass a nil *recorder and take no intermediate timestamps.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) add(op int, s step, start, end time.Time) { r.record(op, int8(s), start, end) }

func (r *recorder) addOp(op int, start, end time.Time) { r.record(op, -1, start, end) }

func (r *recorder) record(op int, step int8, start, end time.Time) {
	r.spans = append(r.spans, span{op: int32(op), step: step,
		start: int64(start.Sub(r.base)), end: int64(end.Sub(r.base))})
}

// stepMedians returns each recorded step's median duration in µs, keyed by
// its metric name.
func (r *recorder) stepMedians() map[string]float64 {
	var durs [numSteps][]int64
	for _, sp := range r.spans {
		if sp.step >= 0 {
			durs[sp.step] = append(durs[sp.step], sp.end-sp.start)
		}
	}
	out := map[string]float64{}
	for s, d := range durs {
		if len(d) > 0 {
			out[stepMetric[s]] = percentile(sortedMicros(d), 0.5)
		}
	}
	return out
}

// spanSummary is the small JSON file written beside the span file. It
// holds two decompositions of the op. The step medians are what the
// client.* metrics report; their sum equals the op's median only when the
// steps do not trade time against each other, which table_stream's do (a
// late Send reply finds its rows already queued). The step means always add
// up to the op's mean, short of the untiled remainder: the few µs an op
// spends before its first step and after its last (nonce, context, and the
// allocations they make beside a busy reader goroutine).
type spanSummary struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Ops            int                `json:"ops"`
	Spans          int                `json:"spans"`
	OpP50US        float64            `json:"op_p50_us"`
	StepMediansUS  map[string]float64 `json:"step_medians_us"`
	StepSumUS      float64            `json:"step_sum_us"`
	StepSumOverP50 float64            `json:"step_sum_over_p50"`

	OpMeanUS          float64            `json:"op_mean_us"`
	StepMeansUS       map[string]float64 `json:"step_means_us"`
	StepMeanSumOverOp float64            `json:"step_mean_sum_over_op_mean"`
	UntiledMedianNS   float64            `json:"untiled_median_ns"`
	UntiledOverOpMean float64            `json:"untiled_mean_over_op_mean"`
}

// summarize fills the summary's figures from the recorded spans. An op's
// steps are recorded before the op's own span, so one pass pairs them.
func (r *recorder) summarize(sum *spanSummary, opP50US float64) {
	sum.Spans, sum.OpP50US = len(r.spans), opP50US
	sum.StepMediansUS = r.stepMedians()
	for _, v := range sum.StepMediansUS {
		sum.StepSumUS += v
	}
	sum.StepSumOverP50 = sum.StepSumUS / opP50US

	var stepTotal [numSteps]int64
	var opTotal, untiledTotal, inOp int64
	var untiled []float64
	for _, sp := range r.spans {
		d := sp.end - sp.start
		if sp.step >= 0 {
			stepTotal[sp.step] += d
			inOp += d
			continue
		}
		sum.Ops++
		opTotal += d
		untiledTotal += d - inOp
		untiled = append(untiled, float64(d-inOp))
		inOp = 0
	}
	if sum.Ops == 0 {
		return
	}
	n := float64(sum.Ops)
	sum.OpMeanUS = float64(opTotal) / n / 1e3
	sum.StepMeansUS = map[string]float64{}
	var stepMeanSum float64
	for s, t := range stepTotal {
		if t > 0 {
			sum.StepMeansUS[stepMetric[s]] = float64(t) / n / 1e3
			stepMeanSum += float64(t) / n / 1e3
		}
	}
	sum.StepMeanSumOverOp = stepMeanSum / sum.OpMeanUS
	sum.UntiledMedianNS = median(untiled)
	sum.UntiledOverOpMean = float64(untiledTotal) / float64(opTotal)
}

// write stores every span under dir as tab-separated text (op, parent,
// name, start_ns, end_ns) plus the summary. It runs after the round, never
// inside it.
func (r *recorder) write(dir string, sum spanSummary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+sum.Workload+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "op\tparent\tname\tstart_ns\tend_ns")
	for _, sp := range r.spans {
		name, parent := "op", int32(-1)
		if sp.step >= 0 {
			name, parent = stepMetric[sp.step], sp.op
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", sp.op, parent, name, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+sum.Workload+".json"), append(b, '\n'), 0o644)
}
