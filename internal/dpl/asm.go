package dpl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Assembler for disassembly listings. Disassemble → Assemble →
// Disassemble is stable: the listing carries every fact the round trip
// needs (constants by value, globals and hosts by name, jumps by
// target), so tooling can edit or audit a listing and get an equivalent
// program back. Assembled code is subject to the same structural
// verification as any other bytecode before a VM will run it.

type assembler struct {
	out     *Compiled
	consts  constPool
	funcs   map[string]int
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
		out:     &Compiled{},
		funcs:   map[string]int{},
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
		if _, dup := a.funcs[name]; dup {
			return nil, fmt.Errorf("dpl: asm line %d: duplicate function %q", ln+1, name)
		}
		a.funcs[name] = len(a.out.Funcs)
		a.out.Funcs = append(a.out.Funcs, &CompiledFunc{Name: name, NumParams: params, NumLocals: locals})
	}
	var cur *[]Instr
	next := 0 // function headers come in the order the first pass saw
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
			cur = &a.out.Funcs[next].Code
			next++
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

// parseInstr decodes one listing line: "<ip>  MNEMONIC [operands]".
func (a *assembler) parseInstr(line string) (Instr, error) {
	// Leading instruction index.
	i := strings.IndexFunc(line, func(r rune) bool { return r == ' ' || r == '\t' })
	if i < 0 {
		return Instr{}, fmt.Errorf("malformed instruction %q", line)
	}
	if _, err := strconv.Atoi(line[:i]); err != nil {
		return Instr{}, fmt.Errorf("malformed instruction index in %q", line)
	}
	mn, rest, _ := strings.Cut(strings.TrimSpace(line[i:]), " ")
	op := slices.IndexFunc(opTable[:], func(r opInfo) bool { return r.name == mn })
	if op < 0 {
		return Instr{}, fmt.Errorf("unknown mnemonic %q", mn)
	}
	in := Instr{Op: Opcode(op)}
	for _, o := range in.operands() {
		x, more, err := a.operand(o.kind, strings.TrimSpace(rest))
		if err == nil && int(int32(x)) != x {
			err = fmt.Errorf("operand %d out of range", x)
		}
		if err != nil {
			return Instr{}, fmt.Errorf("%s: %w", mn, err)
		}
		*o.x, rest = int32(x), more
	}
	if rest = strings.TrimSpace(rest); rest != "" {
		return Instr{}, fmt.Errorf("%s: unexpected operand text %q", mn, rest)
	}
	return in, nil
}

// operand reads one operand of the given kind from the front of s (the
// inverse of formatOperand) and returns its value and the text after
// it.
func (a *assembler) operand(kind operand, s string) (int, string, error) {
	word, rest, _ := strings.Cut(s, " ")
	switch kind {
	case opdConst:
		v, err := parseConstOperand(s) // a constant ends the line
		if err != nil {
			return 0, "", err
		}
		return a.consts.intern(v), "", nil
	case opdGlobal:
		if gi, ok := a.globals[word]; ok {
			return gi, rest, nil
		}
		return 0, "", fmt.Errorf("unknown global %q", word)
	case opdFunc, opdHost:
		// "name/argc": the arity is the count operand that follows.
		slash := strings.LastIndex(word, "/")
		if slash <= 0 {
			return 0, "", fmt.Errorf("malformed call operand %q", word)
		}
		name, argc := word[:slash], word[slash+1:]+" "+rest
		if kind == opdHost {
			return a.host(name), argc, nil
		}
		if fi, ok := a.funcs[name]; ok {
			return fi, argc, nil
		}
		return 0, "", fmt.Errorf("call to unknown function %q", name)
	case opdTarget:
		if t, ok := strings.CutPrefix(word, "->"); ok {
			if n, err := strconv.Atoi(t); err == nil {
				return n, rest, nil
			}
		}
		return 0, "", fmt.Errorf("malformed jump target %q", word)
	case opdOperator:
		for k := range binOps {
			if k.String() == word {
				return int(k), rest, nil
			}
		}
		return 0, "", fmt.Errorf("unknown operator %q", word)
	case opdConstOp, opdLocalOp:
		k, rest, err := a.operand(opdOperator, s)
		if err != nil {
			return 0, "", err
		}
		idx, rest, err := a.operand(kind.index(), strings.TrimSpace(rest))
		if err != nil {
			return 0, "", err
		}
		if idx > maxPackedIdx {
			return 0, "", fmt.Errorf("index %d too large to pack beside an operator", idx)
		}
		packed, _ := PackIdxOp(int32(idx), TokenKind(k))
		return int(packed), rest, nil
	default: // opdLocal, opdCount
		if n, err := strconv.Atoi(word); err == nil && n >= 0 {
			return n, rest, nil
		}
		return 0, "", fmt.Errorf("malformed operand %q", word)
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
