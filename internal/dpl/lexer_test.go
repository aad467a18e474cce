package dpl

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`var x = 42; // comment
/* block
   comment */
func f(a, b) { return a + b * 2.5; }`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokVar, TokIdent, TokAssign, TokInt, TokSemicolon,
		TokFunc, TokIdent, TokLParen, TokIdent, TokComma, TokIdent, TokRParen,
		TokLBrace, TokReturn, TokIdent, TokPlus, TokIdent, TokStar, TokFloat,
		TokSemicolon, TokRBrace, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex(`== != <= >= < > && || ! = += -= % / *`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokEq, TokNe, TokLe, TokGe, TokLt, TokGt, TokAndAnd, TokOrOr,
		TokBang, TokAssign, TokPlusAssign, TokMinusAssign, TokPercent,
		TokSlash, TokStar, TokEOF,
	}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex(`"a\nb\t\"c\"\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\nb\t\"c\"\\" {
		t.Fatalf("string = %q", toks[0].Text)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex(`0 123 3.14 1e3 2.5e-2 6e`)
	if err != nil {
		t.Fatal(err)
	}
	// "6e" must lex as the int 6 followed by the identifier e — the
	// exponent backtrack path.
	want := []TokenKind{TokInt, TokInt, TokFloat, TokFloat, TokFloat, TokInt, TokIdent, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("number %d (%q) = %s, want %s", i, toks[i].Text, got[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		`"unterminated`,
		"\"newline\n\"",
		`"bad \q escape"`,
		`a & b`,
		`a | b`,
		`a # b`,
		`/* unterminated`,
	}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("var x;\n  func")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("var at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[3].Line != 2 || toks[3].Col != 3 {
		t.Errorf("func at %d:%d, want 2:3", toks[3].Line, toks[3].Col)
	}
}

// TestParseReportsFirstErrorByPosition pins the one thing a caller can
// see of the parser pulling its tokens: the error Parse returns is the
// first in the source, whichever stage found it. When the whole source
// was lexed first, a bad character anywhere hid every syntax error
// before it.
func TestParseReportsFirstErrorByPosition(t *testing.T) {
	cases := []struct {
		name, src string
		pos       Pos
		msg       string
	}{
		{"syntactic before lexical",
			"func main() {\n\tvar a = 1\n\tvar b = 2;\n\treturn a # b;\n}", Pos{3, 2}, "expected ';'"},
		{"lexical before syntactic",
			"func main() {\n\tvar a = 1 # 2;\n\tvar b = 2\n\treturn a;\n}", Pos{2, 12}, "unexpected character '#'"},
		{"two syntactic",
			"func main() {\n\tvar = 1;\n\treturn );\n}", Pos{2, 6}, "expected identifier"},
		{"two lexical",
			"func main() {\n\treturn \"a\\q\" + `;\n}", Pos{2, 13}, "unknown escape"},
		{"lexical error is the token the parser stops at",
			"func main() { return 1 & 2; }", Pos{1, 24}, "did you mean '&&'"},
		{"lexical error at top level",
			"var x = 1;\n@", Pos{2, 1}, "unexpected character '@'"},
		{"literal overflow before lexical",
			"var x = 99999999999999999999 + `;", Pos{1, 9}, "overflows int64"},
		{"bad target before lexical",
			"func main() { 1 = `; }", Pos{1, 15}, "invalid assignment target"},
		{"unterminated comment after syntactic",
			"func main() { return 1 }\n/* open", Pos{1, 24}, "expected ';'"},
		{"unterminated comment alone",
			"func main() { return 1; }\n/* open", Pos{2, 1}, "unterminated block comment"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		e, ok := err.(*Error)
		if !ok {
			t.Errorf("%s: Parse = %v, want a *Error", c.name, err)
			continue
		}
		if d := e.Diags[0]; len(e.Diags) != 1 || d.Code != CodeParse || d.Pos != c.pos || !strings.Contains(d.Msg, c.msg) {
			t.Errorf("%s: error %v, want %q at %s", c.name, e, c.msg, c.pos)
		}
	}
}
