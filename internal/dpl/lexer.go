package dpl

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer converts DPL source text into tokens, one scan call at a time.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

// Character classes. DPL source is almost always ASCII, so each class
// answers for a byte before it asks the unicode tables. -1 (end of
// input) is in no class.
func isLetter(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r|0x20 && r|0x20 <= 'z'
	}
	return unicode.IsLetter(r)
}

func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return r == ' ' || '\t' <= r && r <= '\r'
	}
	return unicode.IsSpace(r)
}

func (l *lexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *lexer) next() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, size := rune(l.src[l.off]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRuneInString(l.src[l.off:])
	}
	l.off += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() error {
	for {
		r := l.peek()
		switch {
		case r == -1:
			return nil
		case isSpace(r):
			l.next()
		case r == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '/':
			for l.peek() != '\n' && l.peek() != -1 {
				l.next()
			}
		case r == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '*':
			startLine, startCol := l.line, l.col
			l.next()
			l.next()
			for {
				if l.peek() == -1 {
					return errAt(startLine, startCol, "unterminated block comment")
				}
				if l.next() == '*' && l.peek() == '/' {
					l.next()
					break
				}
			}
		default:
			return nil
		}
	}
}

// Lex tokenizes the whole source, returning tokens ending in TokEOF.
// The DPL parser pulls its tokens from scan; Lex is for callers that
// want the stream as a slice, and scans twice to allocate it once.
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
	line, col := l.line, l.col
	start := l.off
	r := l.next()
	switch {
	case isLetter(r) || r == '_':
		for r := l.peek(); isLetter(r) || isDigit(r) || r == '_'; r = l.peek() {
			l.next()
		}
		text := l.src[start:l.off]
		kind := TokIdent
		if k, ok := keywords[text]; ok {
			kind = k
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
	case isDigit(r):
		kind := TokInt
		for isDigit(l.peek()) {
			l.next()
		}
		if l.peek() == '.' && l.off+1 < len(l.src) && isDigit(rune(l.src[l.off+1])) {
			kind = TokFloat
			l.next()
			for isDigit(l.peek()) {
				l.next()
			}
		}
		if p := l.peek(); p == 'e' || p == 'E' {
			save := *l
			l.next()
			if p := l.peek(); p == '+' || p == '-' {
				l.next()
			}
			if isDigit(l.peek()) {
				kind = TokFloat
				for isDigit(l.peek()) {
					l.next()
				}
			} else {
				*l = save
			}
		}
		return Token{Kind: kind, Text: l.src[start:l.off], Line: line, Col: col}, nil
	case r == -1:
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	case r == '"':
		return l.scanString(line, col)
	case r == '&' || r == '|':
		if l.peek() != r {
			return Token{}, errAt(line, col, "unexpected '%c' (did you mean '%c%c'?)", r, r, r)
		}
		l.next()
		return Token{Kind: punct[r], Line: line, Col: col}, nil
	case r < utf8.RuneSelf && punct[r] != TokEOF:
		kind := punct[r]
		if punctEq[r] != TokEOF && l.peek() == '=' {
			l.next()
			kind = punctEq[r]
		}
		return Token{Kind: kind, Line: line, Col: col}, nil
	}
	return Token{}, errAt(line, col, "unexpected character %q", r)
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
