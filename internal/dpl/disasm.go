package dpl

import (
	"fmt"
	"strconv"
	"strings"
)

// Disassemble renders a compiled program as a human-readable bytecode
// listing — the inspection tool an operator uses to audit what a stored
// DP actually does before instantiating it.
func Disassemble(c *Compiled) string {
	var b strings.Builder
	listing := func(code []Instr) {
		for ip, in := range code {
			fmt.Fprintf(&b, "  %4d  %s\n", ip, FormatInstr(c, in))
		}
	}
	if len(c.GlobalNames) > 0 {
		fmt.Fprintf(&b, "globals: %s\n", strings.Join(c.GlobalNames, ", "))
	}
	if len(c.InitCode) > 0 {
		b.WriteString("init:\n")
		listing(c.InitCode)
	}
	for _, f := range c.Funcs {
		fmt.Fprintf(&b, "func %s (params=%d locals=%d):\n", f.Name, f.NumParams, f.NumLocals)
		listing(f.Code)
	}
	return b.String()
}

// FormatInstr renders one instruction as the disassembler prints it
// (mnemonic plus symbolic operands). The bytecode verifier cites this
// text in its diagnostics so a rejected instruction is readable.
func FormatInstr(c *Compiled, in Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s", in.Op)
	for i, o := range in.operands() {
		if o.kind == opdCount && i > 0 {
			fmt.Fprintf(&b, "/%d", *o.x) // a call's arity follows its callee
		} else {
			b.WriteString(" " + formatOperand(c, o.kind, int(*o.x)))
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// operandRef is one operand field of an instruction and its kind.
type operandRef struct {
	kind operand
	x    *int32
}

// operands returns in's operand fields in the order a listing writes
// them: A then B, except that a constant or a jump target goes last (a
// constant's rendering may contain spaces, so it ends the line).
func (in *Instr) operands() []operandRef {
	r := opTable[in.Op]
	a, b := operandRef{r.a, &in.A}, operandRef{r.b, &in.B}
	switch {
	case r.a == opdNone:
		return nil
	case r.b == opdNone:
		return []operandRef{a}
	case r.a == opdConst || r.a == opdTarget:
		return []operandRef{b, a}
	}
	return []operandRef{a, b}
}

// formatOperand renders operand x of the given kind. Indices outside
// their table print raw: FormatInstr also cites invalid code.
func formatOperand(c *Compiled, kind operand, x int) string {
	in := func(n int) bool { return x >= 0 && x < n }
	switch {
	case kind == opdConst && in(len(c.Consts)):
		return formatConst(c.Consts[x])
	case kind == opdGlobal && in(len(c.GlobalNames)):
		return c.GlobalNames[x]
	case kind == opdGlobal:
		return fmt.Sprintf("g%d", x)
	case kind == opdFunc && in(len(c.Funcs)):
		return c.Funcs[x].Name
	case kind == opdHost && in(len(c.HostNames)):
		return c.HostNames[x]
	case kind == opdConst || kind == opdFunc || kind == opdHost:
		return fmt.Sprintf("#%d", x)
	case kind == opdTarget:
		return fmt.Sprintf("->%d", x)
	case kind == opdOperator:
		return TokenKind(x).String()
	case kind == opdConstOp || kind == opdLocalOp:
		idx, op := UnpackIdxOp(int32(x))
		return op.String() + " " + formatOperand(c, kind.index(), int(idx))
	}
	return strconv.Itoa(x) // opdLocal, opdCount
}

// formatConst renders a constant-pool value so the listing is
// unambiguous to reassemble: strings are quoted and floats always carry
// a decimal marker (FormatValue renders 2.0 as "2", which would read
// back as an int).
func formatConst(v Value) string {
	switch v.k {
	case KindString:
		return strconv.Quote(v.str())
	case KindFloat:
		s := FormatValue(v)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		return s
	default:
		return FormatValue(v)
	}
}
