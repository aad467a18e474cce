package dpl

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"mbd/internal/ber"
)

// A CompiledProgram is the shippable form of a delegated program: the
// object code plus the analysis verdict the sender's source-level
// pipeline derived. The pair is what cascaded delegation forwards down a
// domain tree so that downstream hops can admit the program after a
// cheap bytecode verification (internal/dpl/verify) instead of
// re-parsing and re-analyzing source. SourceHash and Version together
// form the content-addressed cache key (sha256(source) + compiler
// generation) used by the elastic process's program cache.
type CompiledProgram struct {
	// Version is the compiler generation that produced Object; receivers
	// refuse artifacts whose Version differs from their own
	// CompilerVersion.
	Version int
	// SourceHash is sha256 of the original source text.
	SourceHash [32]byte
	// Verdict is the declared analysis summary the receiver re-checks
	// against the bytecode.
	Verdict Verdict
	// Object is the executable form.
	Object *Compiled
}

// Verdict is the serialized analysis summary attached to a compiled
// program: what the program may touch and how much it may cost. It uses
// plain strings (not analysis types) so the bytecode layer stays free of
// the analyzer; internal/elastic converts to and from analysis.Effects.
type Verdict struct {
	// Hosts lists every host function the program may call.
	Hosts []string
	// Reads and Writes list MIB OID prefixes the program may touch;
	// "*" is the wildcard (some OID could not be bounded statically).
	Reads  []string
	Writes []string
	// CostSteps is the analyzer's worst-case step estimate; meaningless
	// when CostUnbounded.
	CostSteps uint64
	// CostUnbounded reports that no static bound exists (unbounded loop
	// or event-driven program).
	CostUnbounded bool
	// StepBudget is the derived VM step quota (0 when CostUnbounded:
	// the receiver applies its own default quota).
	StepBudget uint64
}

// HashSource returns the content-address of source. Every delegation
// pays for it, so it hashes the string's bytes in place, through a view
// Sum256 neither keeps nor writes to.
func HashSource(source string) [32]byte {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(source), len(source)))
}

// Constant-kind tags inside the encoded constant pool.
const (
	progConstInt    = 1
	progConstFloat  = 2
	progConstString = 3
)

// maxProgLocals bounds NumLocals in decoded functions: the VM allocates
// a slice that large per call frame, so an attacker-supplied count must
// not be trusted.
const maxProgLocals = 65536

// Encode serializes p with BER.
func (p *CompiledProgram) Encode() ([]byte, error) {
	if p.Object == nil {
		return nil, errors.New("dpl: cannot encode program without object code")
	}
	ww := ber.NewWriter(nil)
	w := &ww
	root := w.BeginSeq(ber.TagSequence)
	w.AppendInt(ber.TagInteger, int64(p.Version))
	w.AppendString(ber.TagOctetString, p.SourceHash[:])

	verdict := w.BeginSeq(ber.TagSequence)
	for _, list := range [][]string{p.Verdict.Hosts, p.Verdict.Reads, p.Verdict.Writes} {
		seq := w.BeginSeq(ber.TagSequence)
		for _, s := range list {
			w.AppendString(ber.TagOctetString, []byte(s))
		}
		w.EndSeq(seq)
	}
	w.AppendUint(ber.TagCounter64, p.Verdict.CostSteps)
	unbounded := int64(0)
	if p.Verdict.CostUnbounded {
		unbounded = 1
	}
	w.AppendInt(ber.TagInteger, unbounded)
	w.AppendUint(ber.TagCounter64, p.Verdict.StepBudget)
	w.EndSeq(verdict)

	obj := w.BeginSeq(ber.TagSequence)
	consts := w.BeginSeq(ber.TagSequence)
	for _, v := range p.Object.Consts {
		one := w.BeginSeq(ber.TagSequence)
		switch x := v.(type) {
		case int64:
			w.AppendInt(ber.TagInteger, progConstInt)
			w.AppendInt(ber.TagInteger, x)
		case float64:
			w.AppendInt(ber.TagInteger, progConstFloat)
			w.AppendUint(ber.TagCounter64, math.Float64bits(x))
		case string:
			w.AppendInt(ber.TagInteger, progConstString)
			w.AppendString(ber.TagOctetString, []byte(x))
		default:
			return nil, fmt.Errorf("dpl: unencodable constant %T", v)
		}
		w.EndSeq(one)
	}
	w.EndSeq(consts)
	for _, list := range [][]string{p.Object.GlobalNames, p.Object.HostNames} {
		seq := w.BeginSeq(ber.TagSequence)
		for _, s := range list {
			w.AppendString(ber.TagOctetString, []byte(s))
		}
		w.EndSeq(seq)
	}
	appendCode(w, p.Object.InitCode)
	funcs := w.BeginSeq(ber.TagSequence)
	for _, fn := range p.Object.Funcs {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendString(ber.TagOctetString, []byte(fn.Name))
		w.AppendInt(ber.TagInteger, int64(fn.NumParams))
		w.AppendInt(ber.TagInteger, int64(fn.NumLocals))
		appendCode(w, fn.Code)
		w.EndSeq(one)
	}
	w.EndSeq(funcs)
	w.EndSeq(obj)
	w.EndSeq(root)
	return w.Bytes(), nil
}

func appendCode(w *ber.Writer, code []Instr) {
	seq := w.BeginSeq(ber.TagSequence)
	for _, in := range code {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendInt(ber.TagInteger, int64(in.Op))
		w.AppendInt(ber.TagInteger, int64(in.A))
		w.AppendInt(ber.TagInteger, int64(in.B))
		w.EndSeq(one)
	}
	w.EndSeq(seq)
}

// DecodeProgram parses a BER-encoded CompiledProgram. Decoding checks
// only wire well-formedness plus the few counts the VM would otherwise
// trust for allocation; structural safety of the code itself is the
// verifier's job.
func DecodeProgram(b []byte) (*CompiledProgram, error) {
	r, err := ber.NewReader(b).EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("dpl: bad program envelope: %w", err)
	}
	p := &CompiledProgram{Object: &Compiled{FuncIdx: map[string]int{}}}
	_, ver, err := r.ReadInt()
	if err != nil {
		return nil, err
	}
	p.Version = int(ver)
	_, hash, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	if len(hash) != len(p.SourceHash) {
		return nil, fmt.Errorf("dpl: bad source hash length %d", len(hash))
	}
	copy(p.SourceHash[:], hash)

	vr, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for _, list := range []*[]string{&p.Verdict.Hosts, &p.Verdict.Reads, &p.Verdict.Writes} {
		if *list, err = decodeStrings(vr); err != nil {
			return nil, err
		}
	}
	if _, p.Verdict.CostSteps, err = vr.ReadUint(); err != nil {
		return nil, err
	}
	_, unbounded, err := vr.ReadInt()
	if err != nil {
		return nil, err
	}
	p.Verdict.CostUnbounded = unbounded != 0
	if _, p.Verdict.StepBudget, err = vr.ReadUint(); err != nil {
		return nil, err
	}

	or, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	cr, err := or.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !cr.Empty() {
		one, err := cr.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		_, kind, err := one.ReadInt()
		if err != nil {
			return nil, err
		}
		switch kind {
		case progConstInt:
			_, v, err := one.ReadInt()
			if err != nil {
				return nil, err
			}
			p.Object.Consts = append(p.Object.Consts, v)
		case progConstFloat:
			_, bits, err := one.ReadUint()
			if err != nil {
				return nil, err
			}
			p.Object.Consts = append(p.Object.Consts, math.Float64frombits(bits))
		case progConstString:
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			p.Object.Consts = append(p.Object.Consts, string(s))
		default:
			return nil, fmt.Errorf("dpl: unknown constant kind %d", kind)
		}
	}
	if p.Object.GlobalNames, err = decodeStrings(or); err != nil {
		return nil, err
	}
	if p.Object.HostNames, err = decodeStrings(or); err != nil {
		return nil, err
	}
	if p.Object.InitCode, err = decodeCode(or); err != nil {
		return nil, err
	}
	fr, err := or.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !fr.Empty() {
		one, err := fr.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		fn := &CompiledFunc{}
		_, name, err := one.ReadString()
		if err != nil {
			return nil, err
		}
		fn.Name = string(name)
		_, params, err := one.ReadInt()
		if err != nil {
			return nil, err
		}
		_, locals, err := one.ReadInt()
		if err != nil {
			return nil, err
		}
		if locals < 0 || locals > maxProgLocals || params < 0 || params > locals {
			return nil, fmt.Errorf("dpl: function %q has implausible frame (params=%d locals=%d)", fn.Name, params, locals)
		}
		fn.NumParams, fn.NumLocals = int(params), int(locals)
		if fn.Code, err = decodeCode(one); err != nil {
			return nil, err
		}
		if _, dup := p.Object.FuncIdx[fn.Name]; dup {
			return nil, fmt.Errorf("dpl: duplicate function %q", fn.Name)
		}
		p.Object.FuncIdx[fn.Name] = len(p.Object.Funcs)
		p.Object.Funcs = append(p.Object.Funcs, fn)
	}
	return p, nil
}

func decodeStrings(r *ber.Reader) ([]string, error) {
	sr, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	var out []string
	for !sr.Empty() {
		_, s, err := sr.ReadString()
		if err != nil {
			return nil, err
		}
		out = append(out, string(s))
	}
	return out, nil
}

func decodeCode(r *ber.Reader) ([]Instr, error) {
	sr, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	var code []Instr
	for !sr.Empty() {
		one, err := sr.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		var in Instr
		_, op, err := one.ReadInt()
		if err != nil {
			return nil, err
		}
		if op < 0 || op > 255 {
			return nil, fmt.Errorf("dpl: opcode %d out of range", op)
		}
		in.Op = Opcode(op)
		_, a, err := one.ReadInt()
		if err != nil {
			return nil, err
		}
		_, bv, err := one.ReadInt()
		if err != nil {
			return nil, err
		}
		in.A, in.B = int(a), int(bv)
		code = append(code, in)
	}
	return code, nil
}
