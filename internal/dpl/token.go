// Package dpl implements the Delegated Program Language: the agent
// encoding language of the MbD reproduction.
//
// The paper's prototype accepted delegated programs written in "a
// specific subset of the ANSI C standard ... This subset language
// restricts dps on their ability to bind to external functions. The dbm
// runtime maintains a predefined set of allowed functions." Go cannot
// load native code at runtime, so this package supplies the equivalent:
// a small C-like language with
//
//   - a lexer, recursive-descent parser and AST;
//   - a Translator (Check + Compile) that rejects programs referencing
//     any function outside the host's allowed-function table, exactly
//     the paper's safety rule;
//   - a bytecode compiler and stack VM with instruction-step quotas and
//     cooperative suspend/resume/terminate, giving the elastic process
//     thread-level control over delegated program instances; and
//   - a reference tree-walking interpreter used to cross-check the VM
//     (and as the "interpreted script" baseline in the Table 2.1
//     ablation benchmark).
package dpl

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	TokFloat
	TokString
	// Keywords.
	TokVar
	TokFunc
	TokIf
	TokElse
	TokWhile
	TokFor
	TokBreak
	TokContinue
	TokReturn
	TokTrue
	TokFalse
	TokNil
	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokComma
	TokSemicolon
	TokColon
	TokAssign
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokEq
	TokNe
	TokLt
	TokLe
	TokGt
	TokGe
	TokAndAnd
	TokOrOr
	TokBang
	TokPlusAssign
	TokMinusAssign
)

var tokenNames = map[TokenKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokInt: "int literal",
	TokFloat: "float literal", TokString: "string literal",
	TokVar: "'var'", TokFunc: "'func'", TokIf: "'if'", TokElse: "'else'",
	TokWhile: "'while'", TokFor: "'for'", TokBreak: "'break'",
	TokContinue: "'continue'", TokReturn: "'return'", TokTrue: "'true'",
	TokFalse: "'false'", TokNil: "'nil'",
	TokLParen: "'('", TokRParen: "')'", TokLBrace: "'{'", TokRBrace: "'}'",
	TokLBracket: "'['", TokRBracket: "']'", TokComma: "','",
	TokSemicolon: "';'", TokColon: "':'", TokAssign: "'='",
	TokPlus: "'+'", TokMinus: "'-'", TokStar: "'*'", TokSlash: "'/'",
	TokPercent: "'%'", TokEq: "'=='", TokNe: "'!='", TokLt: "'<'",
	TokLe: "'<='", TokGt: "'>'", TokGe: "'>='", TokAndAnd: "'&&'",
	TokOrOr: "'||'", TokBang: "'!'",
	TokPlusAssign: "'+='", TokMinusAssign: "'-='",
}

// String names the token kind.
func (k TokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", uint8(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

// Pos describes a source location for diagnostics.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }
