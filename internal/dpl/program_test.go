package dpl

import (
	"context"
	"encoding/hex"
	"strings"
	"testing"
)

func sampleProgram(t *testing.T) *CompiledProgram {
	t.Helper()
	src := `var limit = 2.5;
	func main() {
		var a = [1, 2, 3];
		var s = 0;
		for (var i = 0; i < len(a); i += 1) { s += a[i]; }
		if (float(s) > limit && s != 0) { return "over"; }
		return s % 4;
	}`
	c := compileSrc(t, src, Std())
	Optimize(c)
	return &CompiledProgram{
		Version:    CompilerVersion,
		SourceHash: HashSource(src),
		Verdict: Verdict{
			Hosts:      []string{"len", "float"},
			Reads:      []string{"1.3.6.1"},
			Writes:     nil,
			CostSteps:  240,
			StepBudget: 1984,
		},
		Object: c,
	}
}

func TestProgramCodecRoundTrip(t *testing.T) {
	p := sampleProgram(t)
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.Version != p.Version || q.SourceHash != p.SourceHash {
		t.Fatalf("header mismatch: %d/%x vs %d/%x", q.Version, q.SourceHash, p.Version, p.SourceHash)
	}
	v, w := q.Verdict, p.Verdict
	if len(v.Hosts) != len(w.Hosts) || len(v.Reads) != len(w.Reads) || len(v.Writes) != len(w.Writes) ||
		v.CostSteps != w.CostSteps || v.CostUnbounded != w.CostUnbounded || v.StepBudget != w.StepBudget {
		t.Fatalf("verdict mismatch: %+v vs %+v", v, w)
	}
	if Disassemble(q.Object) != Disassemble(p.Object) {
		t.Fatalf("object code mismatch:\n%s\nvs\n%s", Disassemble(q.Object), Disassemble(p.Object))
	}
	// The decoded object must run identically.
	b := Std()
	want, err := NewVM(p.Object, b).Run(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewVM(q.Object, b).Run(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if !goEqual(got, want) {
		t.Fatalf("decoded program computes %v, original %v", got, want)
	}
}

func TestDecodeProgramRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{0x01},
		{0x30, 0x00},
		[]byte("not ber at all"),
	} {
		if _, err := DecodeProgram(b); err == nil {
			t.Errorf("DecodeProgram(%x) succeeded, want error", b)
		}
	}
	// A valid encoding with a corrupted frame count must be refused at
	// decode time (the VM would allocate NumLocals slots on trust).
	p := sampleProgram(t)
	p.Object.Funcs[0].NumLocals = maxProgLocals + 1
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProgram(blob); err == nil {
		t.Error("oversized NumLocals survived decoding")
	}
}

// TestHashSourceGolden pins the content address: it is every program
// cache key and the SourceHash on the wire, so it must stay plain
// sha256 of the source bytes however HashSource gets at them. And since
// it runs on every delegation, it may not copy the source to do it.
// TestDecodeProgramRefusesLongLength: an artifact whose outer length
// takes one octet more than it needs is another encoding of the same
// program, which a cache keyed by the digest of the bytes would admit
// twice. Decoding refuses it.
func TestDecodeProgramRefusesLongLength(t *testing.T) {
	blob, err := sampleProgram(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProgram(blob); err != nil {
		t.Fatal(err)
	}
	padded := []byte{blob[0], 0x81, blob[1]}
	if k := int(blob[1] & 0x7f); blob[1] >= 0x80 {
		padded = append([]byte{blob[0], 0x80 | byte(k+1), 0}, blob[2:2+k]...)
		blob = blob[k:]
	}
	padded = append(padded, blob[2:]...)
	if _, err := DecodeProgram(padded); err == nil {
		t.Fatalf("an artifact with its length in one octet too many (% x) decoded", padded[:4])
	}
}

func TestHashSourceGolden(t *testing.T) {
	for src, want := range map[string]string{
		"":                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"func main() { return 1; }": "c7cafccf4514e43269aad25e38c696879de974c323e36d79ed527af1e913b5e9",
	} {
		hash := HashSource(src)
		if got := hex.EncodeToString(hash[:]); got != want {
			t.Errorf("HashSource(%q) = %s, want %s", src, got, want)
		}
	}
	src := strings.Repeat("var x = 1;\n", 100)
	if n := testing.AllocsPerRun(20, func() { _ = HashSource(src) }); n != 0 {
		t.Errorf("HashSource allocates %.0f times per call, want 0", n)
	}
}
