package dpl

import "strconv"

// Recursive-descent parser for DPL.

type parser struct {
	lex lexer
	tok Token // the one token of lookahead
	// lexErr is the error that ended the token stream. With it scan
	// returned the zero Token, a TokEOF, which no production accepts: the
	// parse fails there, and errf reports lexErr in its place.
	lexErr error
}

// Parse lexes and parses a DPL source unit. The error it returns is the
// first by source position, lexical or syntactic.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	p.advance()
	prog := &Program{}
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
	return prog, nil
}

func (p *parser) cur() Token { return p.tok }

// advance returns the current token and pulls the next one.
func (p *parser) advance() Token {
	t := p.tok
	if p.lexErr == nil {
		p.tok, p.lexErr = p.lex.scan()
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

func posOf(t Token) Pos { return Pos{Line: t.Line, Col: t.Col} }

func (p *parser) parseVarDecl() (*VarDecl, error) {
	kw, _ := p.expect(TokVar)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Pos_: posOf(kw), Name: name.Text}
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
	f := &FuncDecl{Pos_: posOf(kw), Name: name.Text}
	for p.cur().Kind != TokRParen {
		param, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, param.Text)
		if p.cur().Kind == TokComma {
			p.advance()
			continue
		}
		break
	}
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
	b := &Block{Pos_: posOf(lb)}
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // consume '}'
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
		return &BreakStmt{Pos_: posOf(t)}, nil
	case TokContinue:
		t := p.advance()
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos_: posOf(t)}, nil
	case TokReturn:
		t := p.advance()
		s := &ReturnStmt{Pos_: posOf(t)}
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
		return &AssignStmt{Pos_: posOf(start), Target: x, Op: op, Value: v}, nil
	default:
		return &ExprStmt{Pos_: posOf(start), X: x}, nil
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
	s := &IfStmt{Pos_: posOf(kw), Cond: cond, Then: then}
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
	return &WhileStmt{Pos_: posOf(kw), Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (*ForStmt, error) {
	kw, _ := p.expect(TokFor)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	s := &ForStmt{Pos_: posOf(kw)}
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

// Expression parsing: precedence climbing.
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

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOrOr {
		op := p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos_: posOf(op), Op: TokOrOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokAndAnd {
		op := p.advance()
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos_: posOf(op), Op: TokAndAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseEquality() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokEq || p.cur().Kind == TokNe {
		op := p.advance()
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos_: posOf(op), Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().Kind
		if k != TokLt && k != TokLe && k != TokGt && k != TokGe {
			return l, nil
		}
		op := p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos_: posOf(op), Op: op.Kind, L: l, R: r}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokPlus || p.cur().Kind == TokMinus {
		op := p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos_: posOf(op), Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokStar || p.cur().Kind == TokSlash || p.cur().Kind == TokPercent {
		op := p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos_: posOf(op), Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus, TokBang:
		op := p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos_: posOf(op), Op: op.Kind, X: x}, nil
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
			x = &IndexExpr{Pos_: posOf(lb), X: x, I: i}
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
		return &IntLit{Pos_: posOf(t), V: v}, nil
	case TokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad float literal %q", t.Text)
		}
		return &FloatLit{Pos_: posOf(t), V: v}, nil
	case TokString:
		p.advance()
		return &StringLit{Pos_: posOf(t), V: t.Text}, nil
	case TokTrue:
		p.advance()
		return &BoolLit{Pos_: posOf(t), V: true}, nil
	case TokFalse:
		p.advance()
		return &BoolLit{Pos_: posOf(t), V: false}, nil
	case TokNil:
		p.advance()
		return &NilLit{Pos_: posOf(t)}, nil
	case TokIdent:
		p.advance()
		if p.cur().Kind == TokLParen {
			p.advance()
			call := &CallExpr{Pos_: posOf(t), Name: t.Text}
			for p.cur().Kind != TokRParen {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.cur().Kind == TokComma {
					p.advance()
					continue
				}
				break
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Pos_: posOf(t), Name: t.Text}, nil
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
		a := &ArrayLit{Pos_: posOf(t)}
		for p.cur().Kind != TokRBracket {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			a.Elems = append(a.Elems, e)
			if p.cur().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		return a, nil
	case TokLBrace:
		p.advance()
		m := &MapLit{Pos_: posOf(t)}
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
			m.Keys = append(m.Keys, k)
			m.Vals = append(m.Vals, v)
			if p.cur().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, p.errf("unexpected %s in expression", t.Kind)
	}
}
