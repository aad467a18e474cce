package dpl

import "strconv"

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
	sc          *Scratch
	s           *slab
}

// Parse lexes and parses a DPL source unit on a fresh scratch, which
// the program's Check and Compile then run on. The error it returns is
// the first by source position, lexical or syntactic.
func Parse(src string) (*Program, error) { return new(Scratch).Parse(src) }

// Parse is the package-level Parse into s, whose last program it
// replaces: that program, and anything reached through it, is not valid
// afterwards. What was made from it (object code, diagnostics, reports)
// holds no reference to it and stays valid.
func (sc *Scratch) Parse(src string) (*Program, error) {
	sc.stmts, sc.exprs, sc.vals, sc.names, sc.globals, sc.decls = sc.stmts[:0], sc.exprs[:0], sc.vals[:0], sc.names[:0], sc.globals[:0], sc.decls[:0]
	toks, err := sc.lex(src)
	p := &parser{toks: toks, i: -1, err: err, sc: sc, s: &sc.slab}
	p.s.free()
	p.advance()
	return p.program()
}

// program parses the source unit into the slab's Program.
func (p *parser) program() (*Program, error) {
	for p.cur().Kind != TokEOF {
		switch p.cur().Kind {
		case TokVar:
			d, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			p.sc.globals = append(p.sc.globals, d)
		case TokFunc:
			f, err := p.parseFuncDecl()
			if err != nil {
				return nil, err
			}
			p.sc.decls = append(p.sc.decls, f)
		default:
			return nil, p.errf("expected 'var' or 'func' at top level, found %s", p.cur().Kind)
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	prog := &p.s.prog
	*prog = Program{Globals: p.s.globals.list(&p.sc.globals, 0), Funcs: p.s.decls.list(&p.sc.decls, 0), s: p.sc}
	return prog, nil
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

// lex scans src into sc.toks: every token through TokEOF or, when src
// does not lex, through the zero Token in place of the one that failed,
// returning the error.
func (sc *Scratch) lex(src string) ([]Token, error) {
	l := newLexer(src)
	sc.toks = sc.toks[:0]
	for {
		t, err := l.scan()
		sc.toks = appendDoubling(sc.toks, t)
		if err != nil || t.Kind == TokEOF {
			return sc.toks, err
		}
	}
}

// slab holds a program, an arena per node type for its nodes, and
// arenas for the elements of its lists.
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
}

// free clears s of its program and reports the bytes its arrays hold.
func (s *slab) free() int {
	s.prog = Program{}
	return s.funcs.free() + s.vars.free() + s.blocks.free() + s.assigns.free() + s.ifs.free() +
		s.whiles.free() + s.fors.free() + s.breaks.free() + s.conts.free() + s.returns.free() +
		s.exprStmts.free() + s.idents.free() + s.ints.free() + s.floats.free() + s.strs.free() +
		s.bools.free() + s.nils.free() + s.arrays.free() + s.maps.free() + s.unaries.free() +
		s.binaries.free() + s.calls.free() + s.indexes.free() + s.stmts.free() + s.exprs.free() +
		s.names.free() + s.globals.free() + s.decls.free()
}

// arena hands out values of one type from arrays it keeps from one
// parse to the next, each twice the size of the one before.
type arena[T any] struct {
	all  [][]T // all[:i] are used up, and all[i][:n] is handed out
	i, n int
}

// take hands out k zero values in one array.
func (a *arena[T]) take(k int) []T {
	for a.i < len(a.all) && a.n+k > len(a.all[a.i]) {
		a.i, a.n = a.i+1, 0
	}
	if a.i == len(a.all) {
		size := 16
		if a.i > 0 {
			size = 2 * len(a.all[a.i-1])
		}
		a.all = append(a.all, make([]T, max(k, size)))
	}
	a.n += k
	return a.all[a.i][a.n-k : a.n : a.n]
}

// free zeroes what a handed out and reports the bytes it holds.
func (a *arena[T]) free() int {
	n := 0
	for i, all := range a.all {
		if i < a.i {
			clear(all)
		} else if i == a.i {
			clear(all[:a.n])
		}
		n += sizeOf(all)
	}
	a.i, a.n = 0, 0
	return n
}

// new returns the next value of the arena, set to v.
func (a *arena[T]) new(v T) *T {
	x := &a.take(1)[0]
	*x = v
	return x
}

// list moves buf[from:] into the arena, as a list of exactly its length
// (nil when empty), and truncates buf to from.
func (a *arena[T]) list(buf *[]T, from int) []T {
	elems := (*buf)[from:]
	if len(elems) == 0 {
		return nil
	}
	out := a.take(len(elems))
	copy(out, elems)
	clear(elems)
	*buf = (*buf)[:from]
	return out
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
