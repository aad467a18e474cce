package dpl

import (
	"strconv"
	"sync"
)

// Recursive-descent parser for DPL.

type parser struct {
	toks []Token // the whole token stream, lexed before the parse
	i    int     // toks[i] is tok
	tok  Token   // the one token of lookahead
	// err is the lexical error that ended toks, whose last token is then
	// the zero Token: a TokEOF, which no production accepts. lexErr is
	// err once the parser has reached that token; the parse fails there,
	// and errf reports lexErr in its place.
	err, lexErr error
	sc          *parseScratch
	s           *slab
}

// Parse lexes and parses a DPL source unit. The error it returns is the
// first by source position, lexical or syntactic.
func Parse(src string) (*Program, error) {
	sc := parseScratches.Get().(*parseScratch)
	defer sc.release()
	toks, err := sc.lex(src)
	p := &parser{toks: toks, i: -1, err: err, sc: sc, s: slabs.Get().(*slab)}
	p.s.size(toks)
	p.advance()
	prog, err := p.program()
	if err != nil {
		p.s.release()
		return nil, err
	}
	return prog, nil
}

// program parses the source unit into the slab's Program.
func (p *parser) program() (*Program, error) {
	prog := &p.s.prog
	*prog = Program{Globals: p.s.globals.all[:0:len(p.s.globals.all)], Funcs: p.s.decls.all[:0:len(p.s.decls.all)], mem: p.s}
	for p.cur().Kind != TokEOF {
		switch p.cur().Kind {
		case TokVar:
			d, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, d)
		case TokFunc:
			f, err := p.parseFuncDecl()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, p.errf("expected 'var' or 'func' at top level, found %s", p.cur().Kind)
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if len(prog.Globals) == 0 {
		prog.Globals = nil
	}
	if len(prog.Funcs) == 0 {
		prog.Funcs = nil
	}
	return prog, nil
}

// Release hands the memory of prog's nodes and lists to a later Parse.
// Neither prog nor anything reached through it may be used afterwards;
// what was made from it (object code, diagnostics, reports) holds no
// reference to it and stays valid.
func (prog *Program) Release() {
	if s := prog.mem; s != nil {
		prog.mem = nil
		s.release()
	}
}

func (p *parser) cur() Token { return p.tok }

// advance returns the current token and moves to the next one. At the
// end of the stream it stays on the last.
func (p *parser) advance() Token {
	t := p.tok
	if p.i+1 < len(p.toks) {
		p.i++
		p.tok = p.toks[p.i]
		if p.i == len(p.toks)-1 {
			p.lexErr = p.err
		}
	}
	return t
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.cur().Kind)
	}
	return p.advance(), nil
}

func (p *parser) errf(format string, args ...any) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	t := p.cur()
	return errAt(t.Line, t.Col, format, args...)
}

// parseScratch is a parse's working memory, reused from parse to parse
// through parseScratches: the token stream, and the stacks that gather
// a list's elements until the list is complete and moves, at its exact
// length, into the program's slab.
type parseScratch struct {
	toks  []Token
	stmts []Stmt
	exprs []Expr // call arguments, array elements, map keys
	vals  []Expr // map values
	names []string
}

var parseScratches = sync.Pool{New: func() any { return new(parseScratch) }}

// maxKeptTokens bounds the token buffer a parse hands back for reuse,
// so that one huge source does not stay resident.
const maxKeptTokens = 1 << 14

// lex scans src into sc.toks: every token through TokEOF or, when src
// does not lex, through the zero Token in place of the one that failed,
// returning the error.
func (sc *parseScratch) lex(src string) ([]Token, error) {
	l := newLexer(src)
	for {
		t, err := l.scan()
		sc.toks = append(sc.toks, t)
		if err != nil || t.Kind == TokEOF {
			return sc.toks, err
		}
	}
}

// release clears what the scratch holds of the last source and its
// program, and returns it to the pool.
func (sc *parseScratch) release() {
	clear(sc.toks)
	clear(sc.stmts)
	clear(sc.exprs)
	clear(sc.vals)
	clear(sc.names)
	sc.toks, sc.stmts, sc.exprs, sc.vals, sc.names = sc.toks[:0], sc.stmts[:0], sc.exprs[:0], sc.vals[:0], sc.names[:0]
	if cap(sc.toks) > maxKeptTokens {
		sc.toks = nil
	}
	parseScratches.Put(sc)
}

// slab holds a program, an array per node type for its nodes, and
// arrays for the elements of its lists. Each array is sized before the
// parse, from counts of the token stream that the parse of a program
// seldom exceeds; a node past its array's end is allocated on its own.
// A released program's slab serves a later parse through slabs.
type slab struct {
	prog      Program
	funcs     arena[FuncDecl]
	vars      arena[VarDecl]
	blocks    arena[Block]
	assigns   arena[AssignStmt]
	ifs       arena[IfStmt]
	whiles    arena[WhileStmt]
	fors      arena[ForStmt]
	breaks    arena[BreakStmt]
	conts     arena[ContinueStmt]
	returns   arena[ReturnStmt]
	exprStmts arena[ExprStmt]
	idents    arena[Ident]
	ints      arena[IntLit]
	floats    arena[FloatLit]
	strs      arena[StringLit]
	bools     arena[BoolLit]
	nils      arena[NilLit]
	arrays    arena[ArrayLit]
	maps      arena[MapLit]
	unaries   arena[UnaryExpr]
	binaries  arena[BinaryExpr]
	calls     arena[CallExpr]
	indexes   arena[IndexExpr]

	stmts   arena[Stmt]
	exprs   arena[Expr]
	names   arena[string]
	globals arena[*VarDecl]
	decls   arena[*FuncDecl]
	kept    bool // small enough to keep for reuse once released
}

var slabs = sync.Pool{New: func() any { return new(slab) }}

// release clears s of its program and, when it is small enough, keeps
// it for a later parse.
func (s *slab) release() {
	if !s.kept {
		return
	}
	s.prog = Program{}
	s.funcs.free()
	s.vars.free()
	s.blocks.free()
	s.assigns.free()
	s.ifs.free()
	s.whiles.free()
	s.fors.free()
	s.breaks.free()
	s.conts.free()
	s.returns.free()
	s.exprStmts.free()
	s.idents.free()
	s.ints.free()
	s.floats.free()
	s.strs.free()
	s.bools.free()
	s.nils.free()
	s.arrays.free()
	s.maps.free()
	s.unaries.free()
	s.binaries.free()
	s.calls.free()
	s.indexes.free()
	s.stmts.free()
	s.exprs.free()
	s.names.free()
	s.globals.free()
	s.decls.free()
	slabs.Put(s)
}

// arena hands out values of one type from one array.
type arena[T any] struct {
	all []T // all[len:cap] is zero
	n   int // all[:n] is handed out
}

// reset sizes a for n values, keeping its array when it is big
// enough: what the array held of an earlier program, free cleared.
func (a *arena[T]) reset(n int) {
	if cap(a.all) < n {
		a.all = make([]T, n)
	} else {
		a.all = a.all[:n]
	}
	a.n = 0
}

// free zeroes the array, all a handed out included.
func (a *arena[T]) free() {
	clear(a.all)
	a.all, a.n = a.all[:0], 0
}

// new returns the next value of the array, set to v.
func (a *arena[T]) new(v T) *T {
	var x *T
	if a.n < len(a.all) {
		x, a.n = &a.all[a.n], a.n+1
	} else {
		x = new(T)
	}
	*x = v
	return x
}

// list moves buf[from:] into the array, as a list of exactly its length
// (nil when empty), and truncates buf to from.
func (a *arena[T]) list(buf *[]T, from int) []T {
	elems := (*buf)[from:]
	k := len(elems)
	if k == 0 {
		return nil
	}
	var out []T
	if a.n+k <= len(a.all) {
		out, a.n = a.all[a.n:a.n+k:a.n+k], a.n+k
	} else {
		out = make([]T, k)
	}
	copy(out, elems)
	clear(elems)
	*buf = (*buf)[:from]
	return out
}

// size sizes the slab for the program toks spell. Each node type is
// counted from the tokens that make one: a call is an identifier before
// '(', a '-' after an operand is binary, a '{' after ')', 'else' or a
// statement's end opens a block, and so on.
func (s *slab) size(toks []Token) {
	var n struct {
		funcs, vars, blocks, assigns, ifs, whiles, fors, breaks, conts, returns, simple,
		idents, ints, floats, strs, bools, nils, arrays, maps, unaries, binaries, calls, indexes,
		exprs, names, globals int
	}
	prev, prev2 := TokSemicolon, TokSemicolon // as if a statement had just ended
	depth, params := 0, false
	for i, t := range toks {
		stmtEnd := prev == TokSemicolon || prev == TokLBrace || prev == TokRBrace
		switch k := t.Kind; k {
		case TokIdent:
			switch {
			case params:
				n.names++
			case prev == TokVar || prev == TokFunc:
			case i+1 < len(toks) && toks[i+1].Kind == TokLParen:
				n.calls++
			default:
				n.idents++
			}
		case TokInt:
			n.ints++
		case TokFloat:
			n.floats++
		case TokString:
			n.strs++
		case TokTrue, TokFalse:
			n.bools++
		case TokNil:
			n.nils++
		case TokVar:
			n.vars++
			if depth == 0 {
				n.globals++
			}
		case TokFunc:
			n.funcs++
		case TokIf:
			n.ifs++
		case TokWhile:
			n.whiles++
		case TokFor:
			n.fors++
		case TokBreak:
			n.breaks++
		case TokContinue:
			n.conts++
		case TokReturn:
			n.returns++
		case TokLParen:
			params = prev == TokIdent && prev2 == TokFunc
		case TokRParen:
			params = false
		case TokLBrace:
			depth++
			if stmtEnd || prev == TokRParen || prev == TokElse {
				n.blocks++
			} else {
				n.maps++
			}
		case TokRBrace:
			depth--
		case TokLBracket:
			if endsOperand(prev) {
				n.indexes++
			} else {
				n.arrays++
			}
		case TokComma:
			n.exprs++
		case TokColon:
			n.exprs += 2
		case TokMinus:
			if endsOperand(prev) {
				n.binaries++
			} else {
				n.unaries++
			}
		case TokBang:
			n.unaries++
		case TokPlus, TokStar, TokSlash, TokPercent, TokEq, TokNe, TokLt, TokLe, TokGt, TokGe, TokAndAnd, TokOrOr:
			n.binaries++
		case TokAssign:
			if prev != TokIdent || prev2 != TokVar {
				n.assigns++
			}
		case TokPlusAssign, TokMinusAssign:
			n.assigns++
		}
		// A statement that starts with an expression is an assignment or
		// an expression statement.
		if (stmtEnd || prev == TokLParen && prev2 == TokFor) && startsExpr(t.Kind) {
			n.simple++
		}
		prev, prev2 = t.Kind, prev
	}
	exprStmts := max(n.simple-n.assigns, 0)
	s.funcs.reset(n.funcs)
	s.vars.reset(n.vars)
	s.blocks.reset(n.blocks)
	s.assigns.reset(n.assigns)
	s.ifs.reset(n.ifs)
	s.whiles.reset(n.whiles)
	s.fors.reset(n.fors)
	s.breaks.reset(n.breaks)
	s.conts.reset(n.conts)
	s.returns.reset(n.returns)
	s.exprStmts.reset(exprStmts)
	s.idents.reset(n.idents)
	s.ints.reset(n.ints)
	s.floats.reset(n.floats)
	s.strs.reset(n.strs)
	s.bools.reset(n.bools)
	s.nils.reset(n.nils)
	s.arrays.reset(n.arrays)
	s.maps.reset(n.maps)
	s.unaries.reset(n.unaries)
	s.binaries.reset(n.binaries)
	s.calls.reset(n.calls)
	s.indexes.reset(n.indexes)
	s.stmts.reset(n.vars - n.globals + n.blocks + n.assigns + n.ifs + n.whiles + n.fors + n.breaks + n.conts + n.returns + exprStmts)
	s.exprs.reset(n.calls + n.arrays + n.exprs)
	s.names.reset(n.names)
	s.globals.reset(n.globals)
	s.decls.reset(n.funcs)
	s.kept = len(toks) <= maxKeptTokens
}

// endsOperand reports whether a token of kind k can end an operand, so
// that a '-' or '[' after it is binary or an index.
func endsOperand(k TokenKind) bool {
	switch k {
	case TokIdent, TokInt, TokFloat, TokString, TokTrue, TokFalse, TokNil, TokRParen, TokRBracket:
		return true
	}
	return false
}

// startsExpr reports whether a token of kind k can start an expression.
func startsExpr(k TokenKind) bool {
	return endsOperand(k) && k != TokRParen && k != TokRBracket || k == TokLParen || k == TokLBracket || k == TokMinus || k == TokBang
}

func posOf(t Token) Pos { return Pos{Line: t.Line, Col: t.Col} }

func (p *parser) parseVarDecl() (*VarDecl, error) {
	kw, _ := p.expect(TokVar)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := p.s.vars.new(VarDecl{Pos_: posOf(kw), Name: name.Text})
	if p.cur().Kind == TokAssign {
		p.advance()
		d.Init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseFuncDecl() (*FuncDecl, error) {
	kw, _ := p.expect(TokFunc)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := p.s.funcs.new(FuncDecl{Pos_: posOf(kw), Name: name.Text})
	from := len(p.sc.names)
	for p.cur().Kind != TokRParen {
		param, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		p.sc.names = append(p.sc.names, param.Text)
		if p.cur().Kind == TokComma {
			p.advance()
			continue
		}
		break
	}
	f.Params = p.s.names.list(&p.sc.names, from)
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	f.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseBlock() (*Block, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	b := p.s.blocks.new(Block{Pos_: posOf(lb)})
	from := len(p.sc.stmts)
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.sc.stmts = append(p.sc.stmts, s)
	}
	p.advance() // consume '}'
	b.Stmts = p.s.stmts.list(&p.sc.stmts, from)
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokVar:
		return p.parseVarDecl()
	case TokLBrace:
		return p.parseBlock()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokBreak:
		t := p.advance()
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return p.s.breaks.new(BreakStmt{Pos_: posOf(t)}), nil
	case TokContinue:
		t := p.advance()
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return p.s.conts.new(ContinueStmt{Pos_: posOf(t)}), nil
	case TokReturn:
		t := p.advance()
		s := p.s.returns.new(ReturnStmt{Pos_: posOf(t)})
		if p.cur().Kind != TokSemicolon {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Value = v
		}
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return s, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseSimpleStmt parses an assignment or expression statement without
// the trailing semicolon (shared by for-clauses and statements).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	start := p.cur()
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokAssign, TokPlusAssign, TokMinusAssign:
		op := p.advance().Kind
		switch x.(type) {
		case *Ident, *IndexExpr:
		default:
			return nil, errAt(start.Line, start.Col, "invalid assignment target")
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return p.s.assigns.new(AssignStmt{Pos_: posOf(start), Target: x, Op: op, Value: v}), nil
	default:
		return p.s.exprStmts.new(ExprStmt{Pos_: posOf(start), X: x}), nil
	}
}

func (p *parser) parseIf() (*IfStmt, error) {
	kw, _ := p.expect(TokIf)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := p.s.ifs.new(IfStmt{Pos_: posOf(kw), Cond: cond, Then: then})
	if p.cur().Kind == TokElse {
		p.advance()
		if p.cur().Kind == TokIf {
			s.Else, err = p.parseIf()
		} else {
			s.Else, err = p.parseBlock()
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) parseWhile() (*WhileStmt, error) {
	kw, _ := p.expect(TokWhile)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return p.s.whiles.new(WhileStmt{Pos_: posOf(kw), Cond: cond, Body: body}), nil
}

func (p *parser) parseFor() (*ForStmt, error) {
	kw, _ := p.expect(TokFor)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	s := p.s.fors.new(ForStmt{Pos_: posOf(kw)})
	var err error
	if p.cur().Kind != TokSemicolon {
		if p.cur().Kind == TokVar {
			s.Init, err = p.parseVarDecl() // consumes its semicolon
			if err != nil {
				return nil, err
			}
		} else {
			s.Init, err = p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSemicolon); err != nil {
				return nil, err
			}
		}
	} else {
		p.advance()
	}
	if p.cur().Kind != TokSemicolon {
		s.Cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokRParen {
		s.Post, err = p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	s.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Expression parsing: precedence climbing over the binary operators,
// loosest first; every level is left-associative.
//
//	||
//	&&
//	== !=
//	< <= > >=
//	+ -
//	* / %
//	unary - !
//	postfix call/index
//	primary
var binaryPrec = [256]uint8{
	TokOrOr: 1, TokAndAnd: 2, TokEq: 3, TokNe: 3, TokLt: 4, TokLe: 4, TokGt: 4, TokGe: 4,
	TokPlus: 5, TokMinus: 5, TokStar: 6, TokSlash: 6, TokPercent: 6,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

// parseBinary parses an expression whose binary operators all bind
// tighter than prec.
func (p *parser) parseBinary(prec uint8) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().Kind
		if binaryPrec[k] <= prec {
			return l, nil
		}
		op := p.advance()
		r, err := p.parseBinary(binaryPrec[k])
		if err != nil {
			return nil, err
		}
		l = p.s.binaries.new(BinaryExpr{Pos_: posOf(op), Op: k, L: l, R: r})
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus, TokBang:
		op := p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.s.unaries.new(UnaryExpr{Pos_: posOf(op), Op: op.Kind, X: x}), nil
	default:
		return p.parsePostfix()
	}
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case TokLBracket:
			lb := p.advance()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			x = p.s.indexes.new(IndexExpr{Pos_: posOf(lb), X: x, I: i})
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.advance()
		var v int64
		for _, c := range t.Text {
			d := int64(c - '0')
			if v > (1<<63-1-d)/10 {
				return nil, errAt(t.Line, t.Col, "integer literal overflows int64")
			}
			v = v*10 + d
		}
		return p.s.ints.new(IntLit{Pos_: posOf(t), V: v}), nil
	case TokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad float literal %q", t.Text)
		}
		return p.s.floats.new(FloatLit{Pos_: posOf(t), V: v}), nil
	case TokString:
		p.advance()
		return p.s.strs.new(StringLit{Pos_: posOf(t), V: t.Text}), nil
	case TokTrue:
		p.advance()
		return p.s.bools.new(BoolLit{Pos_: posOf(t), V: true}), nil
	case TokFalse:
		p.advance()
		return p.s.bools.new(BoolLit{Pos_: posOf(t), V: false}), nil
	case TokNil:
		p.advance()
		return p.s.nils.new(NilLit{Pos_: posOf(t)}), nil
	case TokIdent:
		p.advance()
		if p.cur().Kind == TokLParen {
			p.advance()
			call := p.s.calls.new(CallExpr{Pos_: posOf(t), Name: t.Text})
			from := len(p.sc.exprs)
			for p.cur().Kind != TokRParen {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				p.sc.exprs = append(p.sc.exprs, a)
				if p.cur().Kind == TokComma {
					p.advance()
					continue
				}
				break
			}
			call.Args = p.s.exprs.list(&p.sc.exprs, from)
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return p.s.idents.new(Ident{Pos_: posOf(t), Name: t.Text}), nil
	case TokLParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case TokLBracket:
		p.advance()
		a := p.s.arrays.new(ArrayLit{Pos_: posOf(t)})
		from := len(p.sc.exprs)
		for p.cur().Kind != TokRBracket {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.sc.exprs = append(p.sc.exprs, e)
			if p.cur().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
		a.Elems = p.s.exprs.list(&p.sc.exprs, from)
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		return a, nil
	case TokLBrace:
		p.advance()
		m := p.s.maps.new(MapLit{Pos_: posOf(t)})
		keys, vals := len(p.sc.exprs), len(p.sc.vals)
		for p.cur().Kind != TokRBrace {
			k, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.sc.exprs = append(p.sc.exprs, k)
			p.sc.vals = append(p.sc.vals, v)
			if p.cur().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
		m.Keys = p.s.exprs.list(&p.sc.exprs, keys)
		m.Vals = p.s.exprs.list(&p.sc.vals, vals)
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, p.errf("unexpected %s in expression", t.Kind)
	}
}
