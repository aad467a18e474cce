package dpl

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// lexSeeds returns every example agent, every committed fuzz seed and a
// few inputs off the ASCII path: the sources the pull lexer must read
// exactly as the whole-source lexer did.
func lexSeeds(t testing.TB) map[string]string {
	t.Helper()
	seeds := map[string]string{
		"non-ascii ident":  "var größe = 1; var π2 = größe;",
		"non-ascii digits": "var x = \u0663\u0664 + 1\u0662.\u0665 + 2e\u0663;",
		"non-ascii space":  "var\u00a0x =\u00851;\u2003",
		"string escapes":   `var s = "a\n\t\r\\\"\0z" + "é\"ü" + "";`,
		"bad utf8":         "var s = \"a\xffb\\n\xc3\"; var \xff = 1;",
		"replacement char": "var s = \"a\ufffdb\";",
		"bad escape":       `var s = "ok\q";`,
		"open string":      "var s = \"abc\nvar t = 1;",
		"open comment":     "var x = 1; /* never closed",
		"lone ampersand":   "func f() { return 1 & 2; }",
		"lone bar":         "func f() { return 1 | 2; }",
		"numbers":          "0 123 3.14 1e3 2.5e-2 6e 7.e 8.x 9e+ 1..2",
		"operators":        "== != <= >= < > && || ! = += -= % / * // tail\n/**/ /* * / */ ;",
	}
	agents, err := filepath.Glob(filepath.Join("..", "..", "examples", "agents", "*.dpl"))
	if err != nil || len(agents) == 0 {
		t.Fatalf("no example agents: %v", err)
	}
	for _, file := range agents {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		seeds[file] = string(src)
	}
	// The source corpora; FuzzVMMatchesInterpreter's entries are seeds.
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "Fuzz[PA]*", "*"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	for _, file := range corpus {
		seeds[file] = corpusString(t, file)
	}
	return seeds
}

// corpusString reads a one-string fuzz corpus entry.
func corpusString(t testing.TB, file string) string {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	// "go test fuzz v1\nstring(<quoted>)\n"
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\nstring(")
	if !ok {
		t.Fatalf("%s: not a one-string corpus entry", file)
	}
	src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return src
}

// TestScanMatchesReferenceLexer holds the pull lexer to the token
// stream (kind, text, line, column) of the lexer it replaced, and to
// its error where the source does not lex.
func TestScanMatchesReferenceLexer(t *testing.T) {
	lexed := 0
	for name, src := range lexSeeds(t) {
		if matchReferenceLexer(t, name, src) {
			lexed++
		}
	}
	if lexed < 20 {
		t.Errorf("only %d seeds lex; the comparison is not covering the corpus", lexed)
	}
}

// FuzzScanMatchesReferenceLexer is TestScanMatchesReferenceLexer over
// arbitrary bytes.
func FuzzScanMatchesReferenceLexer(f *testing.F) {
	for _, src := range lexSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		matchReferenceLexer(t, "input", src)
	})
}

// matchReferenceLexer compares the pull lexer, and Lex, with the
// reference lexer on src, and reports whether src lexes.
func matchReferenceLexer(t *testing.T, name, src string) bool {
	t.Helper()
	want, wantErr := refLex(src)
	l := newLexer(src)
	var got []Token
	var gotErr error
	for {
		tok, err := l.scan()
		if err != nil {
			got, gotErr = nil, err
			break
		}
		got = append(got, tok)
		if tok.Kind == TokEOF {
			break
		}
	}
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
		return false
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d tokens, reference %d", name, len(got), len(want))
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: token %d = %+v, reference %+v", name, i, got[i], want[i])
			return false
		}
	}
	if wantErr != nil {
		return false
	}
	if again, err := l.scan(); err != nil || again != want[len(want)-1] {
		t.Errorf("%s: scan past the end = %+v, %v; want the same TokEOF", name, again, err)
	}
	if toks, err := Lex(src); err != nil || !slices.Equal(toks, want) {
		t.Errorf("%s: Lex = %d tokens, %v; reference %d", name, len(toks), err, len(want))
	}
	return true
}

// TestLexAllocatesItsSliceOnce: the token slice is sized from the
// source, not grown.
func TestLexAllocatesItsSliceOnce(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "agents", "health.dpl"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	if n := testing.AllocsPerRun(20, func() { _, _ = Lex(src) }); n != 1 {
		t.Errorf("Lex of health.dpl makes %.0f allocations, want its one slice", n)
	}
}

// refLexer is the whole-source lexer the pull lexer replaced, kept
// verbatim as the oracle for TestScanMatchesReferenceLexer.
type refLexer struct {
	src  string
	off  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (l *refLexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *refLexer) next() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) skipSpaceAndComments() error {
	for {
		r := l.peek()
		switch {
		case r == -1:
			return nil
		case unicode.IsSpace(r):
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

// refKeywords is the keyword table the reference lexer looks words up
// in.
var refKeywords = map[string]TokenKind{
	"var": TokVar, "func": TokFunc, "if": TokIf, "else": TokElse,
	"while": TokWhile, "for": TokFor, "break": TokBreak,
	"continue": TokContinue, "return": TokReturn, "true": TokTrue,
	"false": TokFalse, "nil": TokNil,
}

// refLex is Lex as it was when it was the only lexer.
func refLex(src string) ([]Token, error) {
	l := newRefLexer(src)
	var toks []Token
	for {
		if err := l.skipSpaceAndComments(); err != nil {
			return nil, err
		}
		line, col := l.line, l.col
		r := l.peek()
		if r == -1 {
			toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
			return toks, nil
		}
		switch {
		case unicode.IsLetter(r) || r == '_':
			start := l.off
			for {
				r := l.peek()
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
					break
				}
				l.next()
			}
			text := l.src[start:l.off]
			kind := TokIdent
			if k, ok := refKeywords[text]; ok {
				kind = k
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: col})
		case unicode.IsDigit(r):
			start := l.off
			isFloat := false
			for unicode.IsDigit(l.peek()) {
				l.next()
			}
			if l.peek() == '.' && l.off+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.off+1])) {
				isFloat = true
				l.next()
				for unicode.IsDigit(l.peek()) {
					l.next()
				}
			}
			if p := l.peek(); p == 'e' || p == 'E' {
				save := *l
				l.next()
				if p := l.peek(); p == '+' || p == '-' {
					l.next()
				}
				if unicode.IsDigit(l.peek()) {
					isFloat = true
					for unicode.IsDigit(l.peek()) {
						l.next()
					}
				} else {
					*l = save
				}
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Text: l.src[start:l.off], Line: line, Col: col})
		case r == '"':
			l.next()
			var b strings.Builder
			for {
				r := l.next()
				switch r {
				case -1, '\n':
					return nil, errAt(line, col, "unterminated string literal")
				case '"':
					toks = append(toks, Token{Kind: TokString, Text: b.String(), Line: line, Col: col})
				case '\\':
					esc := l.next()
					switch esc {
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
						return nil, errAt(l.line, l.col, "unknown escape \\%c", esc)
					}
					continue
				default:
					b.WriteRune(r)
					continue
				}
				break
			}
		default:
			l.next()
			two := func(second rune, withKind, without TokenKind) {
				if l.peek() == second {
					l.next()
					toks = append(toks, Token{Kind: withKind, Line: line, Col: col})
				} else {
					toks = append(toks, Token{Kind: without, Line: line, Col: col})
				}
			}
			switch r {
			case '(':
				toks = append(toks, Token{Kind: TokLParen, Line: line, Col: col})
			case ')':
				toks = append(toks, Token{Kind: TokRParen, Line: line, Col: col})
			case '{':
				toks = append(toks, Token{Kind: TokLBrace, Line: line, Col: col})
			case '}':
				toks = append(toks, Token{Kind: TokRBrace, Line: line, Col: col})
			case '[':
				toks = append(toks, Token{Kind: TokLBracket, Line: line, Col: col})
			case ']':
				toks = append(toks, Token{Kind: TokRBracket, Line: line, Col: col})
			case ',':
				toks = append(toks, Token{Kind: TokComma, Line: line, Col: col})
			case ';':
				toks = append(toks, Token{Kind: TokSemicolon, Line: line, Col: col})
			case ':':
				toks = append(toks, Token{Kind: TokColon, Line: line, Col: col})
			case '=':
				two('=', TokEq, TokAssign)
			case '!':
				two('=', TokNe, TokBang)
			case '<':
				two('=', TokLe, TokLt)
			case '>':
				two('=', TokGe, TokGt)
			case '+':
				two('=', TokPlusAssign, TokPlus)
			case '-':
				two('=', TokMinusAssign, TokMinus)
			case '*':
				toks = append(toks, Token{Kind: TokStar, Line: line, Col: col})
			case '/':
				toks = append(toks, Token{Kind: TokSlash, Line: line, Col: col})
			case '%':
				toks = append(toks, Token{Kind: TokPercent, Line: line, Col: col})
			case '&':
				if l.peek() == '&' {
					l.next()
					toks = append(toks, Token{Kind: TokAndAnd, Line: line, Col: col})
				} else {
					return nil, errAt(line, col, "unexpected '&' (did you mean '&&'?)")
				}
			case '|':
				if l.peek() == '|' {
					l.next()
					toks = append(toks, Token{Kind: TokOrOr, Line: line, Col: col})
				} else {
					return nil, errAt(line, col, "unexpected '|' (did you mean '||'?)")
				}
			default:
				return nil, errAt(line, col, "unexpected character %q", r)
			}
		}
	}
}
