package dpl

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenProgram is a CompiledProgram exercising every part of the
// artifact encoding: all three constant kinds, globals with init code,
// host calls, several functions, fused opcodes and a full verdict.
func goldenProgram(t *testing.T) *CompiledProgram {
	t.Helper()
	src := `var limit = 2.5;
	var name = "probe";
	func scale(x, y) { return x * y + 1; }
	func main() {
		var s = 0;
		for (var i = 0; i < 3; i += 1) { s += scale(i, 2); }
		if (float(s) > limit && len(name) != 0) { return name + "-over"; }
		return s % 4;
	}`
	c := compileSrc(t, src, Std())
	Optimize(c)
	return &CompiledProgram{
		Version:    CompilerVersion,
		SourceHash: HashSource(src),
		Verdict: Verdict{
			Hosts:         []string{"float", "len"},
			Reads:         []string{"1.3.6.1.2.1.2", "*"},
			Writes:        []string{"1.3.6.1.4.1.45"},
			CostSteps:     1 << 35,
			CostUnbounded: true,
			StepBudget:    1984,
		},
		Object: c,
	}
}

const programGolden = "testdata/program.golden"

// TestProgramWireGolden pins a CompiledProgram's encoding: the program
// encodes to the golden bytes, and the golden bytes decode to a
// program that encodes to them again. Rewrite the golden file with
//
//	DPL_WRITE_GOLDEN=1 go test ./internal/dpl -run TestProgramWireGolden
func TestProgramWireGolden(t *testing.T) {
	blob, err := goldenProgram(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DPL_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(programGolden, []byte(hex.EncodeToString(blob)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(programGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("program encoding changed\n got %x\nwant %x", blob, want)
	}
	back, err := DecodeProgram(want)
	if err != nil {
		t.Fatalf("golden bytes do not decode: %v", err)
	}
	again, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("golden bytes decode to a program encoding as\n%x", again)
	}
}

// TestProgramDecodeChecksTags: the golden program's encoding with any
// one element's tag changed does not decode — no field is read without
// checking the tag it carries.
func TestProgramDecodeChecksTags(t *testing.T) {
	blob, err := goldenProgram(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// walk visits every element of b (at base in blob), walking into
	// constructed ones.
	var walk func(b []byte, base int)
	walk = func(b []byte, base int) {
		for i := 0; i+1 < len(b); {
			tag, n, hdr := b[i], int(b[i+1]), 2
			if n >= 0x80 {
				k := n & 0x7f
				n = 0
				for _, x := range b[i+2 : i+2+k] {
					n = n<<8 | int(x)
				}
				hdr += k
			}
			bad := append([]byte(nil), blob...)
			bad[base+i] = 0x1f
			if _, err := DecodeProgram(bad); err == nil {
				t.Errorf("tag 0x%02x at %d changed, still decodes", tag, base+i)
			}
			if tag&0x20 != 0 {
				walk(b[i+hdr:i+hdr+n], base+i+hdr)
			}
			i += hdr + n
		}
	}
	walk(blob, 0)
}
