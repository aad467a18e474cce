package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestRegressed(t *testing.T) {
	base := Benchmark{NsPerOp: 1000, BytesPerOp: 4000, AllocsPerOp: 50}
	cases := []struct {
		name string
		cur  Benchmark
		want bool
	}{
		{"unchanged", base, false},
		{"all better", Benchmark{NsPerOp: 700, BytesPerOp: 2000, AllocsPerOp: 30}, false},
		{"ns inside the threshold", Benchmark{NsPerOp: 1149, BytesPerOp: 4000, AllocsPerOp: 50}, false},
		{"ns past the threshold", Benchmark{NsPerOp: 1151, BytesPerOp: 4000, AllocsPerOp: 50}, true},
		{"bytes inside the threshold", Benchmark{NsPerOp: 1000, BytesPerOp: 4590, AllocsPerOp: 50}, false},
		// A slice grown from nil where it was sized: a quarter more
		// bytes, and no more time than the noise hides.
		{"bytes past the threshold, allocs equal", Benchmark{NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 50}, true},
		{"bytes past the threshold, ns better", Benchmark{NsPerOp: 800, BytesPerOp: 4700, AllocsPerOp: 50}, true},
		{"one more alloc", Benchmark{NsPerOp: 1000, BytesPerOp: 4000, AllocsPerOp: 51}, true},
	}
	for _, c := range cases {
		if got := regressed(base, c.cur, 0.15); got != c.want {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.want)
		}
	}

	// wireB/op counts protocol bytes: like allocs/op, any rise fails.
	wired := Benchmark{NsPerOp: 1000, BytesPerOp: 4000, AllocsPerOp: 50, WireBytesPerOp: 34}
	for cur, want := range map[float64]bool{34: false, 17: false, 35: true, 34.2: true, 0: true} {
		c := wired
		c.WireBytesPerOp = cur
		if got := regressed(wired, c, 0.15); got != want {
			t.Errorf("wireB/op 34 -> %v: regressed = %v, want %v", cur, got, want)
		}
	}
	if regressed(base, wired, 0.15) {
		t.Error("a wireB/op the baseline does not record failed the gate")
	}

	// An allocation-free baseline: B/op has no ratio to a zero base,
	// and the allocs/op rule is what fails a first allocation.
	free := Benchmark{NsPerOp: 100}
	if regressed(free, Benchmark{NsPerOp: 100, BytesPerOp: 3}, 0.15) {
		t.Error("3 B/op amortised over no allocs/op failed the gate")
	}
	if !regressed(free, Benchmark{NsPerOp: 100, BytesPerOp: 16, AllocsPerOp: 1}, 0.15) {
		t.Error("a first allocation passed the gate")
	}
}

func TestParseAndCondense(t *testing.T) {
	out := `goos: linux
BenchmarkAdmitCold-2   	   20000	     60000 ns/op	   19000 B/op	     440 allocs/op
BenchmarkAdmitCold-2   	   20000	     50000 ns/op	   19100 B/op	     440 allocs/op
BenchmarkAdmitCold-2   	   20000	     90000 ns/op	   19050 B/op	     441 allocs/op
BenchmarkNoMem         	 1000000	       100 ns/op
BenchmarkWire-2        	    3000	     20000 ns/op	        34.00 wireB/op	     988 B/op	      13 allocs/op
BenchmarkWire-2        	    3000	     21000 ns/op	        35.00 wireB/op	     988 B/op	      13 allocs/op
BenchmarkWire-2        	    3000	     22000 ns/op	        34.00 wireB/op	     988 B/op	      13 allocs/op
PASS
`
	samples, err := parseBench(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	got := condense(samples)
	if want := (Benchmark{NsPerOp: 60000, BytesPerOp: 19050, AllocsPerOp: 440}); got["BenchmarkAdmitCold"] != want {
		t.Errorf("BenchmarkAdmitCold = %+v, want the medians %+v", got["BenchmarkAdmitCold"], want)
	}
	if want := (Benchmark{NsPerOp: 21000, BytesPerOp: 988, AllocsPerOp: 13, WireBytesPerOp: 34}); got["BenchmarkWire"] != want {
		t.Errorf("BenchmarkWire = %+v, want %+v", got["BenchmarkWire"], want)
	}
	if want := (Benchmark{NsPerOp: 100}); got["BenchmarkNoMem"] != want {
		t.Errorf("BenchmarkNoMem = %+v, want %+v", got["BenchmarkNoMem"], want)
	}
}
