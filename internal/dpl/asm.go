package dpl

import (
	"fmt"
	"strconv"
	"strings"
)

// Assembler for disassembly listings. Disassemble → Assemble →
// Disassemble is stable: the listing carries every fact the round trip
// needs (constants by value, globals and hosts by name, jumps by
// target), so tooling can edit or audit a listing and get an equivalent
// program back. Assembled code is subject to the same structural
// verification as any other bytecode before a VM will run it.

// nameToOp inverts opNames.
var nameToOp = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// asmBinOps maps the disassembler's operator rendering ('+', '<=', …)
// back to the OpBin immediate.
var asmBinOps = func() map[string]TokenKind {
	m := make(map[string]TokenKind, len(binOps))
	for k := range binOps {
		m[k.String()] = k
	}
	return m
}()

type assembler struct {
	out     *Compiled
	consts  constPool
	globals map[string]int
	hosts   map[string]int
}

func (a *assembler) host(name string) int {
	if i, ok := a.hosts[name]; ok {
		return i
	}
	i := len(a.out.HostNames)
	a.out.HostNames = append(a.out.HostNames, name)
	a.hosts[name] = i
	return i
}

// Assemble parses a disassembly listing (the Disassemble format) back
// into a Compiled program. Host indices are assigned in first-use
// order, so the result generally needs rebinding-aware execution (a
// Bindings table whose layout matches HostNames); the listing itself
// round-trips regardless.
func Assemble(text string) (*Compiled, error) {
	a := &assembler{
		out:     &Compiled{FuncIdx: map[string]int{}},
		globals: map[string]int{},
		hosts:   map[string]int{},
	}
	a.consts.c = a.out
	lines := strings.Split(text, "\n")
	// First pass: function headers, so forward CALLs resolve.
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, "func ") {
			continue
		}
		name, params, locals, err := parseFuncHeader(line)
		if err != nil {
			return nil, fmt.Errorf("dpl: asm line %d: %w", ln+1, err)
		}
		if _, dup := a.out.FuncIdx[name]; dup {
			return nil, fmt.Errorf("dpl: asm line %d: duplicate function %q", ln+1, name)
		}
		a.out.FuncIdx[name] = len(a.out.Funcs)
		a.out.Funcs = append(a.out.Funcs, &CompiledFunc{Name: name, NumParams: params, NumLocals: locals})
	}
	var cur *[]Instr
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "globals:"):
			for _, g := range strings.Split(strings.TrimPrefix(line, "globals:"), ",") {
				g = strings.TrimSpace(g)
				if g == "" {
					continue
				}
				if _, dup := a.globals[g]; dup {
					return nil, fmt.Errorf("dpl: asm line %d: duplicate global %q", ln+1, g)
				}
				a.globals[g] = len(a.out.GlobalNames)
				a.out.GlobalNames = append(a.out.GlobalNames, g)
			}
		case line == "init:":
			cur = &a.out.InitCode
		case strings.HasPrefix(line, "func "):
			name, _, _, err := parseFuncHeader(line)
			if err != nil {
				return nil, fmt.Errorf("dpl: asm line %d: %w", ln+1, err)
			}
			cur = &a.out.Funcs[a.out.FuncIdx[name]].Code
		default:
			if cur == nil {
				return nil, fmt.Errorf("dpl: asm line %d: instruction outside any section", ln+1)
			}
			in, err := a.parseInstr(line)
			if err != nil {
				return nil, fmt.Errorf("dpl: asm line %d: %w", ln+1, err)
			}
			*cur = append(*cur, in)
		}
	}
	return a.out, nil
}

func parseFuncHeader(line string) (name string, params, locals int, err error) {
	rest, ok := strings.CutPrefix(line, "func ")
	if !ok {
		return "", 0, 0, fmt.Errorf("not a function header: %q", line)
	}
	name, attrs, ok := strings.Cut(rest, " (")
	if !ok || !strings.HasSuffix(attrs, "):") {
		return "", 0, 0, fmt.Errorf("malformed function header: %q", line)
	}
	if _, err := fmt.Sscanf(strings.TrimSuffix(attrs, "):"), "params=%d locals=%d", &params, &locals); err != nil {
		return "", 0, 0, fmt.Errorf("malformed function header: %q", line)
	}
	if params < 0 || locals < 0 || params > locals || locals > maxProgLocals {
		return "", 0, 0, fmt.Errorf("implausible frame in header: %q", line)
	}
	return name, params, locals, nil
}

// parseInstr decodes one listing line: "<ip>  MNEMONIC [operand]".
func (a *assembler) parseInstr(line string) (Instr, error) {
	// Leading instruction index.
	i := strings.IndexFunc(line, func(r rune) bool { return r == ' ' || r == '\t' })
	if i < 0 {
		return Instr{}, fmt.Errorf("malformed instruction %q", line)
	}
	if _, err := strconv.Atoi(line[:i]); err != nil {
		return Instr{}, fmt.Errorf("malformed instruction index in %q", line)
	}
	rest := strings.TrimSpace(line[i:])
	mn, operand, _ := strings.Cut(rest, " ")
	operand = strings.TrimSpace(operand)
	op, ok := nameToOp[mn]
	if !ok {
		return Instr{}, fmt.Errorf("unknown mnemonic %q", mn)
	}
	in := Instr{Op: op}
	switch op {
	case OpNil, OpTrue, OpFalse, OpPop, OpEq, OpNe, OpNeg, OpNot,
		OpReturn, OpReturnNil, OpIndex, OpSetIndex:
		if operand != "" {
			return Instr{}, fmt.Errorf("%s takes no operand, got %q", mn, operand)
		}
		return in, nil
	case OpConst:
		v, err := parseConstOperand(operand)
		if err != nil {
			return Instr{}, err
		}
		in.A = a.consts.intern(v)
		return in, nil
	case OpBin:
		k, ok := asmBinOps[operand]
		if !ok {
			return Instr{}, fmt.Errorf("unknown operator %q", operand)
		}
		in.A = int(k)
		return in, nil
	case OpJump, OpJumpFalse, OpJFKeep, OpJTKeep:
		t, ok := strings.CutPrefix(operand, "->")
		if !ok {
			return Instr{}, fmt.Errorf("malformed jump target %q", operand)
		}
		n, err := strconv.Atoi(t)
		if err != nil {
			return Instr{}, fmt.Errorf("malformed jump target %q", operand)
		}
		in.A = n
		return in, nil
	case OpCall, OpCallHost:
		slash := strings.LastIndex(operand, "/")
		if slash <= 0 {
			return Instr{}, fmt.Errorf("malformed call operand %q", operand)
		}
		name := operand[:slash]
		argc, err := strconv.Atoi(operand[slash+1:])
		if err != nil || argc < 0 {
			return Instr{}, fmt.Errorf("malformed call arity in %q", operand)
		}
		in.B = argc
		if op == OpCall {
			fi, ok := a.out.FuncIdx[name]
			if !ok {
				return Instr{}, fmt.Errorf("call to unknown function %q", name)
			}
			in.A = fi
		} else {
			in.A = a.host(name)
		}
		return in, nil
	case OpLoadG, OpStoreG:
		gi, ok := a.globals[operand]
		if !ok {
			return Instr{}, fmt.Errorf("unknown global %q", operand)
		}
		in.A = gi
		return in, nil
	case OpLoadL, OpStoreL, OpArray, OpMap:
		n, err := strconv.Atoi(operand)
		if err != nil || n < 0 {
			return Instr{}, fmt.Errorf("malformed %s operand %q", mn, operand)
		}
		in.A = n
		return in, nil
	case OpLoadLConstBin, OpLoadLLoadLBin:
		// "<local> <op> <const-or-local>" — the constant is last
		// because its rendering may contain spaces.
		parts := strings.SplitN(operand, " ", 3)
		if len(parts) != 3 {
			return Instr{}, fmt.Errorf("malformed %s operand %q", mn, operand)
		}
		local, err := strconv.Atoi(parts[0])
		if err != nil || local < 0 {
			return Instr{}, fmt.Errorf("malformed %s local in %q", mn, operand)
		}
		k, ok := asmBinOps[parts[1]]
		if !ok {
			return Instr{}, fmt.Errorf("unknown operator %q", parts[1])
		}
		in.A = local
		if op == OpLoadLLoadLBin {
			l2, err := strconv.Atoi(parts[2])
			if err != nil || l2 < 0 {
				return Instr{}, fmt.Errorf("malformed %s local in %q", mn, operand)
			}
			in.B = PackIdxOp(l2, k)
			return in, nil
		}
		v, err := parseConstOperand(strings.TrimSpace(parts[2]))
		if err != nil {
			return Instr{}, err
		}
		in.B = PackIdxOp(a.consts.intern(v), k)
		return in, nil
	case OpBinJumpFalse:
		parts := strings.SplitN(operand, " ", 2)
		if len(parts) != 2 {
			return Instr{}, fmt.Errorf("malformed %s operand %q", mn, operand)
		}
		k, ok := asmBinOps[parts[0]]
		if !ok {
			return Instr{}, fmt.Errorf("unknown operator %q", parts[0])
		}
		t, ok := strings.CutPrefix(parts[1], "->")
		if !ok {
			return Instr{}, fmt.Errorf("malformed jump target %q", parts[1])
		}
		n, err := strconv.Atoi(t)
		if err != nil {
			return Instr{}, fmt.Errorf("malformed jump target %q", parts[1])
		}
		in.A = n
		in.B = int(k)
		return in, nil
	case OpConstStoreL, OpIncL, OpDecL:
		parts := strings.SplitN(operand, " ", 2)
		if len(parts) != 2 {
			return Instr{}, fmt.Errorf("malformed %s operand %q", mn, operand)
		}
		local, err := strconv.Atoi(parts[0])
		if err != nil || local < 0 {
			return Instr{}, fmt.Errorf("malformed %s local in %q", mn, operand)
		}
		v, err := parseConstOperand(strings.TrimSpace(parts[1]))
		if err != nil {
			return Instr{}, err
		}
		if op == OpConstStoreL {
			in.A, in.B = a.consts.intern(v), local
		} else {
			in.A, in.B = local, a.consts.intern(v)
		}
		return in, nil
	default:
		return Instr{}, fmt.Errorf("unassemblable opcode %s", mn)
	}
}

// parseConstOperand reads a formatConst rendering: a quoted string, an
// int, or a float (always carrying ., e or Inf/NaN).
func parseConstOperand(s string) (Value, error) {
	if s == "" {
		return Value{}, fmt.Errorf("missing constant operand")
	}
	if s[0] == '"' {
		str, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("malformed string constant %s", s)
		}
		return Str(str), nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(n), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Value{}, fmt.Errorf("malformed constant %q", s)
	}
	return Float(f), nil
}
