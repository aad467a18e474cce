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
// object code plus the analysis verdict the sender's pipeline derived
// from it. The pair is what cascaded delegation forwards down a
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
// the analyzer; analysis.Report.Verdict builds one.
type Verdict struct {
	// Hosts lists every host function the program may call.
	Hosts []string
	// Reads and Writes list MIB OID prefixes the program may touch;
	// "*" is the wildcard (some OID could not be bounded statically).
	Reads  []string
	Writes []string
	// CostSteps bounds the VM steps of the global initializers plus
	// the costliest function, by the analyzer's cost model over Object;
	// meaningless when CostUnbounded. A receiver recomputes it and
	// refuses a claim below its own (DPL015).
	CostSteps uint64
	// CostUnbounded reports that no static bound exists (unbounded loop
	// or event-driven program).
	CostUnbounded bool
	// StepBudget is the VM step quota the sender derived (0 when
	// CostUnbounded). A receiver derives its own from the cost it
	// recovered; this one need only cover CostSteps.
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
	c := ber.Encoder(nil)
	p.visit(&c)
	return c.Bytes(), c.Err()
}

// DecodeProgram parses a BER-encoded CompiledProgram. Decoding checks
// only wire well-formedness plus the few counts the VM would otherwise
// trust for allocation; structural safety of the code itself is the
// verifier's job.
func DecodeProgram(b []byte) (*CompiledProgram, error) {
	p := &CompiledProgram{Object: &Compiled{}}
	c := ber.Decoder(b)
	p.visit(&c)
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// visit runs p's wire format through c: version, source hash, verdict,
// then the object code.
func (p *CompiledProgram) visit(c *ber.Codec) {
	root := c.Begin(ber.TagSequence)
	ber.Int(c, &p.Version)
	c.Fixed(ber.TagOctetString, p.SourceHash[:])
	v := &p.Verdict
	verdict := c.Begin(ber.TagSequence)
	visitStrings(c, &v.Hosts)
	visitStrings(c, &v.Reads)
	visitStrings(c, &v.Writes)
	c.Uint(ber.TagCounter64, &v.CostSteps)
	c.Bool(&v.CostUnbounded)
	c.Uint(ber.TagCounter64, &v.StepBudget)
	c.End(verdict)
	p.Object.visit(c)
	c.End(root)
}

// visit runs the object code's wire format through c: the constant
// pool, global and host names, init code, then each function.
func (o *Compiled) visit(c *ber.Codec) {
	obj := c.Begin(ber.TagSequence)
	for i := range ber.List(c, ber.TagSequence, &o.Consts, math.MaxInt) {
		visitConst(c, &o.Consts[i])
	}
	visitStrings(c, &o.GlobalNames)
	visitStrings(c, &o.HostNames)
	visitCode(c, &o.InitCode)
	var names map[string]struct{} // the decoded function names, for the duplicate check
	for i := range ber.List(c, ber.TagSequence, &o.Funcs, math.MaxInt) {
		if c.Decoding() {
			o.Funcs[i] = &CompiledFunc{}
		}
		fn := o.Funcs[i]
		one := c.Begin(ber.TagSequence)
		c.String(ber.TagOctetString, &fn.Name)
		ber.Int(c, &fn.NumParams)
		ber.Int(c, &fn.NumLocals)
		if c.Decoding() && (fn.NumLocals < 0 || fn.NumLocals > maxProgLocals || fn.NumParams < 0 || fn.NumParams > fn.NumLocals) {
			c.Fail(fmt.Errorf("dpl: function %q has implausible frame (params=%d locals=%d)", fn.Name, fn.NumParams, fn.NumLocals))
		}
		visitCode(c, &fn.Code)
		c.End(one)
		if c.Decoding() {
			if names == nil {
				names = make(map[string]struct{})
			}
			if _, dup := names[fn.Name]; dup {
				c.Fail(fmt.Errorf("dpl: duplicate function %q", fn.Name))
			}
			names[fn.Name] = struct{}{}
		}
	}
	c.End(obj)
}

// visitConst visits one constant-pool entry: its kind tag, then its
// value in that kind's encoding.
func visitConst(c *ber.Codec, v *Value) {
	one := c.Begin(ber.TagSequence)
	var kind int
	switch v.k {
	case KindInt:
		kind = progConstInt
	case KindFloat:
		kind = progConstFloat
	case KindString:
		kind = progConstString
	}
	ber.Int(c, &kind)
	switch kind {
	case progConstInt:
		n := v.int()
		ber.Int(c, &n)
		if c.Decoding() {
			*v = Int(n)
		}
	case progConstFloat:
		bits := v.n
		c.Uint(ber.TagCounter64, &bits)
		if c.Decoding() {
			*v = Float(math.Float64frombits(bits))
		}
	case progConstString:
		s := v.str()
		c.String(ber.TagOctetString, &s)
		if c.Decoding() {
			*v = Str(s)
		}
	default:
		if c.Decoding() {
			c.Fail(fmt.Errorf("dpl: unknown constant kind %d", kind))
		} else {
			c.Fail(fmt.Errorf("dpl: unencodable constant of kind %s", v.k))
		}
	}
	c.End(one)
}

func visitStrings(c *ber.Codec, list *[]string) {
	for i := range ber.List(c, ber.TagSequence, list, math.MaxInt) {
		c.String(ber.TagOctetString, &(*list)[i])
	}
}

func visitCode(c *ber.Codec, code *[]Instr) {
	for i := range ber.List(c, ber.TagSequence, code, math.MaxInt) {
		in := &(*code)[i]
		one := c.Begin(ber.TagSequence)
		ber.Int(c, &in.Op)
		ber.Int(c, &in.A)
		ber.Int(c, &in.B)
		c.End(one)
	}
}
