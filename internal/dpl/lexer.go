package dpl

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer converts DPL source text into tokens, one scan call at a time.
// DPL source is almost always ASCII, so the lexer reads it a byte at a
// time and decodes a rune only where a byte is not ASCII. Columns count
// runes, as they always have.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

// Byte classes of ASCII: letters and '_' start an identifier, and
// digits continue one.
const (
	classIdent = 1 << iota
	classDigit
	classSpace
)

var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch {
		case 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_':
			t[c] = classIdent
		case '0' <= c && c <= '9':
			t[c] = classDigit
		case c == ' ' || '\t' <= c && c <= '\r':
			t[c] = classSpace
		}
	}
	return t
}()

// rune decodes the rune at the offset, -1 at the end of input.
func (l *lexer) rune() (rune, int) {
	if l.off >= len(l.src) {
		return -1, 0
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.off:])
}

// next consumes one rune and returns it, -1 at the end of input.
func (l *lexer) next() rune {
	r, size := l.rune()
	l.off += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else if size > 0 {
		l.col++
	}
	return r
}

// skipText consumes src[l.off:end], which holds no newline.
func (l *lexer) skipText(end int) {
	l.col += utf8.RuneCountInString(l.src[l.off:end])
	l.off = end
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == '\n':
			l.off++
			l.line++
			l.col = 1
		case c < utf8.RuneSelf && byteClass[c] == classSpace:
			l.off++
			l.col++
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '/':
			end := strings.IndexByte(l.src[l.off:], '\n')
			if end < 0 {
				end = len(l.src)
			} else {
				end += l.off
			}
			l.skipText(end)
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '*':
			end := strings.Index(l.src[l.off+2:], "*/")
			if end < 0 {
				return errAt(l.line, l.col, "unterminated block comment")
			}
			end += l.off + 4
			if nl := strings.LastIndexByte(l.src[l.off:end], '\n'); nl >= 0 {
				l.line += strings.Count(l.src[l.off:end], "\n")
				l.off += nl + 1
				l.col = 1
			}
			l.skipText(end)
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(l.src[l.off:])
			if !unicode.IsSpace(r) {
				return nil
			}
			l.off += size
			l.col++
		default:
			return nil
		}
	}
	return nil
}

// Lex tokenizes the whole source, returning tokens ending in TokEOF.
// The DPL parser scans into a token buffer it reuses; Lex is for
// callers that want the stream as a slice of their own, and scans twice
// to allocate it once.
func Lex(src string) ([]Token, error) {
	n := 1
	for l := newLexer(src); ; n++ {
		if t, err := l.scan(); err != nil {
			return nil, err
		} else if t.Kind == TokEOF {
			break
		}
	}
	toks := make([]Token, n)
	l := newLexer(src)
	for i := range toks {
		toks[i], _ = l.scan()
	}
	return toks, nil
}

// scan returns the next token, or the zero Token and an error. At the
// end of input it returns TokEOF, and keeps returning it.
func (l *lexer) scan() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col, start := l.line, l.col, l.off
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	c := l.src[l.off]
	if c >= utf8.RuneSelf {
		r := l.next()
		switch {
		case unicode.IsLetter(r):
			l.identTail()
			return Token{Kind: TokIdent, Text: l.src[start:l.off], Line: line, Col: col}, nil
		case unicode.IsDigit(r):
			return l.number(start, line, col), nil
		}
		return Token{}, errAt(line, col, "unexpected character %q", r)
	}
	switch byteClass[c] {
	case classIdent:
		l.identTail()
		text := l.src[start:l.off]
		return Token{Kind: keyword(text), Text: text, Line: line, Col: col}, nil
	case classDigit:
		return l.number(start, line, col), nil
	}
	l.off++
	l.col++
	switch {
	case c == '"':
		return l.scanString(line, col)
	case c == '&' || c == '|':
		if l.off >= len(l.src) || l.src[l.off] != c {
			return Token{}, errAt(line, col, "unexpected '%c' (did you mean '%c%c'?)", c, c, c)
		}
		l.off++
		l.col++
		return Token{Kind: punct[c], Line: line, Col: col}, nil
	case punct[c] != TokEOF:
		kind := punct[c]
		if punctEq[c] != TokEOF && l.off < len(l.src) && l.src[l.off] == '=' {
			l.off++
			l.col++
			kind = punctEq[c]
		}
		return Token{Kind: kind, Line: line, Col: col}, nil
	}
	return Token{}, errAt(line, col, "unexpected character %q", rune(c))
}

// identTail consumes the rest of an identifier: letters, digits and
// '_'.
func (l *lexer) identTail() {
	for {
		i := l.off
		for i < len(l.src) && l.src[i] < utf8.RuneSelf && byteClass[l.src[i]]&(classIdent|classDigit) != 0 {
			i++
		}
		l.col += i - l.off
		l.off = i
		if r, _ := l.rune(); r < utf8.RuneSelf || !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return
		}
		l.next()
	}
}

// digitAt reports whether a decimal digit, of any script, starts at the
// offset.
func (l *lexer) digitAt() bool {
	r, _ := l.rune()
	return '0' <= r && r <= '9' || r >= utf8.RuneSelf && unicode.IsDigit(r)
}

// digits consumes a run of decimal digits.
func (l *lexer) digits() {
	for l.digitAt() {
		l.next()
	}
}

// number scans the int or float literal that starts at start.
func (l *lexer) number(start, line, col int) Token {
	kind := TokInt
	l.digits()
	if l.off+1 < len(l.src) && l.src[l.off] == '.' && '0' <= l.src[l.off+1] && l.src[l.off+1] <= '9' {
		kind = TokFloat
		l.off++
		l.col++
		l.digits()
	}
	if l.off < len(l.src) && l.src[l.off]|0x20 == 'e' {
		save := *l
		l.off++
		l.col++
		if l.off < len(l.src) && (l.src[l.off] == '+' || l.src[l.off] == '-') {
			l.off++
			l.col++
		}
		if l.digitAt() {
			kind = TokFloat
			l.digits()
		} else {
			*l = save
		}
	}
	return Token{Kind: kind, Text: l.src[start:l.off], Line: line, Col: col}
}

// keyword returns the keyword kind of an identifier's text, or
// TokIdent.
func keyword(s string) TokenKind {
	switch len(s) {
	case 2:
		if s == "if" {
			return TokIf
		}
	case 3:
		switch s {
		case "var":
			return TokVar
		case "for":
			return TokFor
		case "nil":
			return TokNil
		}
	case 4:
		switch s {
		case "func":
			return TokFunc
		case "else":
			return TokElse
		case "true":
			return TokTrue
		}
	case 5:
		switch s {
		case "while":
			return TokWhile
		case "break":
			return TokBreak
		case "false":
			return TokFalse
		}
	case 6:
		if s == "return" {
			return TokReturn
		}
	case 8:
		if s == "continue" {
			return TokContinue
		}
	}
	return TokIdent
}

// punct is the token a punctuation byte makes alone ('&' and '|':
// doubled, the only way they occur), punctEq the token it makes with a
// '=' after it.
var (
	punct = [utf8.RuneSelf]TokenKind{
		'(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace, '[': TokLBracket, ']': TokRBracket,
		',': TokComma, ';': TokSemicolon, ':': TokColon, '*': TokStar, '/': TokSlash, '%': TokPercent,
		'=': TokAssign, '!': TokBang, '<': TokLt, '>': TokGt, '+': TokPlus, '-': TokMinus,
		'&': TokAndAnd, '|': TokOrOr,
	}
	punctEq = [utf8.RuneSelf]TokenKind{
		'=': TokEq, '!': TokNe, '<': TokLe, '>': TokGe, '+': TokPlusAssign, '-': TokMinusAssign,
	}
)

// scanString reads a string literal's body and closing quote; the
// opening quote, at line:col, is already consumed. A literal is a slice
// of the source until its first escape (or undecodable byte), and built
// in b from there on.
func (l *lexer) scanString(line, col int) (Token, error) {
	start := l.off
	var b strings.Builder
	built := false
	for {
		i := l.off
		for i < len(l.src) {
			if c := l.src[i]; c == '"' || c == '\\' || c == '\n' || c >= utf8.RuneSelf {
				break
			}
			i++
		}
		if built {
			b.WriteString(l.src[l.off:i])
		}
		l.col += i - l.off
		l.off = i
		at := l.off
		r := l.next()
		switch r {
		case -1, '\n':
			return Token{}, errAt(line, col, "unterminated string literal")
		case '"':
			text := l.src[start:at]
			if built {
				text = b.String()
			}
			return Token{Kind: TokString, Text: text, Line: line, Col: col}, nil
		case '\\', utf8.RuneError:
			if !built {
				built = true
				b.WriteString(l.src[start:at])
			}
			if r == utf8.RuneError {
				b.WriteRune(r)
				continue
			}
			switch esc := l.next(); esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '0':
				b.WriteByte(0)
			default:
				return Token{}, errAt(l.line, l.col, "unknown escape \\%c", esc)
			}
		default:
			if built {
				b.WriteRune(r)
			}
		}
	}
}
