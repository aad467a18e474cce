package dpl

import (
	"fmt"
	"strconv"
	"strings"
)

// opNames maps opcodes to mnemonic names for disassembly.
var opNames = map[Opcode]string{
	OpConst: "CONST", OpNil: "NIL", OpTrue: "TRUE", OpFalse: "FALSE",
	OpLoadG: "LOADG", OpStoreG: "STOREG", OpLoadL: "LOADL", OpStoreL: "STOREL",
	OpPop: "POP", OpBin: "BIN", OpEq: "EQ", OpNe: "NE", OpNeg: "NEG",
	OpNot: "NOT", OpJump: "JUMP", OpJumpFalse: "JF", OpJFKeep: "JFK",
	OpJTKeep: "JTK", OpCall: "CALL", OpCallHost: "CALLH", OpReturn: "RET",
	OpReturnNil: "RETNIL", OpIndex: "INDEX", OpSetIndex: "SETIDX",
	OpArray: "ARRAY", OpMap: "MAP",
	OpLoadLConstBin: "LLCB", OpLoadLLoadLBin: "LLLB", OpBinJumpFalse: "BJF",
	OpConstStoreL: "KSTL", OpIncL: "INCL", OpDecL: "DECL",
}

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Disassemble renders a compiled program as a human-readable bytecode
// listing — the inspection tool an operator uses to audit what a stored
// DP actually does before instantiating it.
func Disassemble(c *Compiled) string {
	var b strings.Builder
	if len(c.GlobalNames) > 0 {
		fmt.Fprintf(&b, "globals: %s\n", strings.Join(c.GlobalNames, ", "))
	}
	if len(c.InitCode) > 0 {
		b.WriteString("init:\n")
		disasmCode(&b, c, c.InitCode)
	}
	for _, f := range c.Funcs {
		fmt.Fprintf(&b, "func %s (params=%d locals=%d):\n", f.Name, f.NumParams, f.NumLocals)
		disasmCode(&b, c, f.Code)
	}
	return b.String()
}

func disasmCode(b *strings.Builder, c *Compiled, code []Instr) {
	for ip, in := range code {
		fmt.Fprintf(b, "  %4d  %s\n", ip, FormatInstr(c, in))
	}
}

// FormatInstr renders one instruction as the disassembler prints it
// (mnemonic plus symbolic operand). The bytecode verifier cites this
// text in its diagnostics so a rejected instruction is readable.
func FormatInstr(c *Compiled, in Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s", in.Op)
	switch in.Op {
	case OpConst:
		if in.A >= 0 && in.A < len(c.Consts) {
			fmt.Fprintf(&b, " %s", formatConst(c.Consts[in.A]))
		} else {
			fmt.Fprintf(&b, " #%d", in.A)
		}
	case OpBin:
		fmt.Fprintf(&b, " %s", TokenKind(in.A))
	case OpJump, OpJumpFalse, OpJFKeep, OpJTKeep:
		fmt.Fprintf(&b, " ->%d", in.A)
	case OpCall:
		name := fmt.Sprintf("#%d", in.A)
		if in.A >= 0 && in.A < len(c.Funcs) {
			name = c.Funcs[in.A].Name
		}
		fmt.Fprintf(&b, " %s/%d", name, in.B)
	case OpCallHost:
		name := fmt.Sprintf("#%d", in.A)
		if in.A >= 0 && in.A < len(c.HostNames) {
			name = c.HostNames[in.A]
		}
		fmt.Fprintf(&b, " %s/%d", name, in.B)
	case OpLoadG, OpStoreG:
		if in.A >= 0 && in.A < len(c.GlobalNames) {
			fmt.Fprintf(&b, " %s", c.GlobalNames[in.A])
		} else {
			fmt.Fprintf(&b, " g%d", in.A)
		}
	case OpLoadL, OpStoreL, OpArray, OpMap:
		fmt.Fprintf(&b, " %d", in.A)
	case OpLoadLConstBin:
		// "LLCB <local> <op> <const>" — the constant rendering may
		// contain spaces (quoted strings), so it always comes last.
		idx, op := UnpackIdxOp(in.B)
		fmt.Fprintf(&b, " %d %s %s", in.A, op, formatConstRef(c, idx))
	case OpLoadLLoadLBin:
		idx, op := UnpackIdxOp(in.B)
		fmt.Fprintf(&b, " %d %s %d", in.A, op, idx)
	case OpBinJumpFalse:
		fmt.Fprintf(&b, " %s ->%d", TokenKind(in.B), in.A)
	case OpConstStoreL:
		fmt.Fprintf(&b, " %d %s", in.B, formatConstRef(c, in.A))
	case OpIncL, OpDecL:
		fmt.Fprintf(&b, " %d %s", in.A, formatConstRef(c, in.B))
	}
	return strings.TrimRight(b.String(), " ")
}

// formatConstRef renders a constant-pool reference, falling back to the
// raw index for out-of-range operands (FormatInstr appears in verifier
// diagnostics, which cite invalid code).
func formatConstRef(c *Compiled, idx int) string {
	if idx >= 0 && idx < len(c.Consts) {
		return formatConst(c.Consts[idx])
	}
	return fmt.Sprintf("#%d", idx)
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
