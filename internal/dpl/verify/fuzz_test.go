package verify_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
)

// quietBindings registers the artifact's own host table in slot order
// with variadic nil stubs, so verification and execution exercise the
// code rather than the receiving node's configuration.
func quietBindings(cp *dpl.CompiledProgram) *dpl.Bindings {
	b := dpl.NewBindings()
	for _, name := range cp.Object.HostNames {
		b.Register(name, -1, func(*dpl.Env, []dpl.Value) (dpl.Value, error) { return dpl.Value{}, nil })
	}
	return b
}

// corpusBlobs builds the deterministic seed set: honest artifacts from
// the source pipeline plus structurally tampered mutants of each.
func corpusBlobs() ([][]byte, error) {
	b := analysis.LintBindings()
	var blobs [][]byte
	for _, src := range honestSources {
		prog, err := dpl.Parse(src)
		if err != nil {
			return nil, err
		}
		obj, rep, err := analysis.Translate(prog, b)
		if err != nil {
			return nil, err
		}
		cp := &dpl.CompiledProgram{
			Version:    dpl.CompilerVersion,
			SourceHash: dpl.HashSource(src),
			Verdict:    rep.Verdict(),
			Object:     obj,
		}
		blob, err := cp.Encode()
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, blob)

		for _, tamper := range []func(*dpl.CompiledProgram){
			func(m *dpl.CompiledProgram) { m.Object.Funcs[0].Code[0].Op = 200 },
			func(m *dpl.CompiledProgram) { m.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpJump, A: 1 << 20} },
			func(m *dpl.CompiledProgram) { m.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpBin, A: 99} },
			func(m *dpl.CompiledProgram) { m.Verdict.Hosts = nil; m.Verdict.Reads = nil; m.Verdict.Writes = nil },
			// Fused-opcode mutants: corrupt packed operands, fused jump
			// targets, and the version stamp under generation-3 code.
			func(m *dpl.CompiledProgram) {
				m.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpLoadLConstBin, A: 0, B: pack(1<<16, dpl.TokPlus)}
			},
			func(m *dpl.CompiledProgram) {
				m.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpLoadLLoadLBin, A: 1 << 12, B: pack(0, 0xff)}
			},
			func(m *dpl.CompiledProgram) {
				m.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpBinJumpFalse, A: -1, B: int32(dpl.TokLt)}
			},
			func(m *dpl.CompiledProgram) {
				m.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpIncL, A: 0, B: 1 << 16}
			},
			func(m *dpl.CompiledProgram) { m.Version = dpl.MinCompilerVersion },
			// A loop test on a negative local, in dead code.
			func(m *dpl.CompiledProgram) {
				fn := m.Object.Funcs[0]
				fn.Code = append(fn.Code, deadLoopTest(fn.Code)...)
			},
		} {
			mut, err := dpl.DecodeProgram(blob)
			if err != nil {
				return nil, err
			}
			tamper(mut)
			mblob, err := mut.Encode()
			if err != nil {
				return nil, err
			}
			blobs = append(blobs, mblob)
		}
	}
	over, err := operandPastInt32(blobs[0])
	if err != nil {
		return nil, err
	}
	return append(blobs, over), nil
}

// operandPastInt32 is blob with its first instruction's operand A set
// to 1<<31, one past what an Instr holds, which decoding must refuse.
// The encoder cannot write it, so the bytes are patched: A = MaxInt32
// beside B = 256 encodes as long as A = 1<<31 beside B = 0, so every
// enclosing length stays right.
func operandPastInt32(blob []byte) ([]byte, error) {
	cp, err := dpl.DecodeProgram(blob)
	if err != nil {
		return nil, err
	}
	cp.Object.Funcs[0].Code[0] = dpl.Instr{Op: dpl.OpConst, A: math.MaxInt32, B: 256}
	enc, err := cp.Encode()
	if err != nil {
		return nil, err
	}
	fits := []byte{0x02, 0x04, 0x7f, 0xff, 0xff, 0xff, 0x02, 0x02, 0x01, 0x00}
	past := []byte{0x02, 0x05, 0x00, 0x80, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00}
	i := bytes.Index(enc, fits)
	if i < 0 {
		return nil, fmt.Errorf("operand encoding not found")
	}
	copy(enc[i:], past)
	return enc, nil
}

// TestDecodeRefusesOperandPastInt32: an instruction operand holds an
// int32, so an artifact carrying a larger one is refused at decode, not
// cut down to some other operand.
func TestDecodeRefusesOperandPastInt32(t *testing.T) {
	blobs, err := corpusBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dpl.DecodeProgram(blobs[len(blobs)-1]); err == nil {
		t.Fatal("an operand of 1<<31 decoded")
	}
}

// FuzzVerify hammers the wire-to-admission path: whatever bytes arrive,
// decoding and verification must not panic, a program decoding accepts
// re-encodes to the bytes it was decoded from, and any program
// the verifier rejects structurally must also be refused by the VM.
func FuzzVerify(f *testing.F) {
	blobs, err := corpusBlobs()
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range blobs {
		f.Add(blob)
		if len(blob) > 8 {
			trunc := blob[:len(blob)/2]
			f.Add(append([]byte{}, trunc...))
			flip := append([]byte{}, blob...)
			flip[len(flip)/3] ^= 0x41
			f.Add(flip)
		}
	}
	structural := map[string]bool{
		dpl.CodeBadOpcode: true, dpl.CodeBadJump: true,
		dpl.CodeStackUnsafe: true, dpl.CodeBadOperand: true,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := dpl.DecodeProgram(data)
		if err != nil {
			return
		}
		blob, err := cp.Encode()
		if err != nil {
			t.Fatalf("accepted program does not re-encode: %v", err)
		}
		if !bytes.Equal(blob, data) {
			t.Fatalf("accepted input does not re-encode to itself:\n% x\nvs\n% x", data, blob)
		}
		again, err := dpl.DecodeProgram(blob)
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v", err)
		}
		if !sameProgram(again, cp) {
			t.Fatalf("round trip diverged:\n%s\nvs\n%s", dpl.Disassemble(again.Object), dpl.Disassemble(cp.Object))
		}
		quiet := quietBindings(cp)
		res := verify.Verify(cp, quiet)
		rejected := false
		for _, d := range res.Diags {
			if structural[d.Code] {
				rejected = true
			}
		}
		vm := dpl.NewVM(cp.Object, quiet, dpl.WithMaxSteps(50000))
		_, runErr := vm.Run(context.Background(), "main")
		if rejected && runErr == nil {
			t.Fatalf("VM executed a structurally rejected program:\n%s", dpl.Disassemble(cp.Object))
		}
	})
}

// sameProgram reports whether two freshly decoded programs are equal
// field by field. Constants compare by kind and value, since a string
// constant's storage differs between decodes.
func sameProgram(a, b *dpl.CompiledProgram) bool {
	ao, bo := a.Object, b.Object
	if a.Version != b.Version || a.SourceHash != b.SourceHash || !reflect.DeepEqual(a.Verdict, b.Verdict) ||
		!reflect.DeepEqual(ao.GlobalNames, bo.GlobalNames) || !reflect.DeepEqual(ao.HostNames, bo.HostNames) ||
		!reflect.DeepEqual(ao.InitCode, bo.InitCode) || !reflect.DeepEqual(ao.Funcs, bo.Funcs) ||
		len(ao.Consts) != len(bo.Consts) {
		return false
	}
	for i, v := range ao.Consts {
		w := bo.Consts[i]
		if f, ok := v.AsNumber(); ok && v.Kind() == dpl.KindFloat {
			g, _ := w.AsNumber()
			if w.Kind() != dpl.KindFloat || math.Float64bits(f) != math.Float64bits(g) {
				return false
			}
		} else if v.Kind() != w.Kind() || v.String() != w.String() {
			return false
		}
	}
	return true
}

// TestGenerateFuzzCorpus rewrites the committed seed corpus when run
// with MBD_GEN_CORPUS=1. CI replays the committed files on every build.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("MBD_GEN_CORPUS") == "" {
		t.Skip("set MBD_GEN_CORPUS=1 to regenerate testdata/fuzz/FuzzVerify")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzVerify")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	blobs, err := corpusBlobs()
	if err != nil {
		t.Fatal(err)
	}
	for i, blob := range blobs {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(blob)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d seeds to %s", len(blobs), dir)
}
