package dpl

// The AST node types produced by the parser. Nodes record their source
// position for translator diagnostics.

// Node is implemented by every AST node.
type Node interface {
	Position() Pos
}

// Program is a parsed compilation unit: top-level variable declarations
// and function definitions.
type Program struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl

	// checked is the Bindings the resolver last bound the program
	// against (host indices depend on them), and diags what it found:
	// Check walks a program once per Bindings.
	checked *Bindings
	diags   []Diagnostic
	// s is the scratch the parser made the program in, whose passes
	// Check and Compile run.
	s *Scratch
}

// scratch returns the scratch prog was parsed in, or a fresh one.
func (prog *Program) scratch() *Scratch {
	if prog.s == nil {
		return new(Scratch)
	}
	return prog.s
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Pos_   Pos
	Name   string
	Params []string
	Body   *Block
	// Locals names each slot of the function's frame, parameters first,
	// in the order the resolver (Check) numbered them: len(Locals) is
	// the frame size.
	Locals []string
}

// Position implements Node.
func (f *FuncDecl) Position() Pos { return f.Pos_ }

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// VarDecl declares (and optionally initializes) a variable.
type VarDecl struct {
	Pos_ Pos
	Name string
	Init Expr // may be nil → nil value
	// Slot is the resolver's: the global's index in Program.Globals, or
	// the local's slot in its function's frame.
	Slot int
}

// Block is a brace-delimited statement list with its own scope.
type Block struct {
	Pos_  Pos
	Stmts []Stmt
}

// AssignStmt assigns to a variable or an index expression. Op is
// TokAssign, TokPlusAssign or TokMinusAssign.
type AssignStmt struct {
	Pos_   Pos
	Target Expr // *Ident or *IndexExpr
	Op     TokenKind
	Value  Expr
}

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	Pos_ Pos
	Cond Expr
	Then *Block
	Else Stmt // *Block, *IfStmt, or nil
}

// WhileStmt loops while the condition holds.
type WhileStmt struct {
	Pos_ Pos
	Cond Expr
	Body *Block
}

// ForStmt is the C-style three-clause loop; any clause may be nil.
type ForStmt struct {
	Pos_ Pos
	Init Stmt // *VarDecl or *AssignStmt or nil
	Cond Expr // nil means true
	Post Stmt // *AssignStmt or *ExprStmt or nil
	Body *Block
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos_ Pos }

// ContinueStmt jumps to the next iteration of the innermost loop.
type ContinueStmt struct{ Pos_ Pos }

// ReturnStmt returns from the current function.
type ReturnStmt struct {
	Pos_  Pos
	Value Expr // nil → nil value
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	Pos_ Pos
	X    Expr
}

// Position implementations.
func (s *VarDecl) Position() Pos      { return s.Pos_ }
func (s *Block) Position() Pos        { return s.Pos_ }
func (s *AssignStmt) Position() Pos   { return s.Pos_ }
func (s *IfStmt) Position() Pos       { return s.Pos_ }
func (s *WhileStmt) Position() Pos    { return s.Pos_ }
func (s *ForStmt) Position() Pos      { return s.Pos_ }
func (s *BreakStmt) Position() Pos    { return s.Pos_ }
func (s *ContinueStmt) Position() Pos { return s.Pos_ }
func (s *ReturnStmt) Position() Pos   { return s.Pos_ }
func (s *ExprStmt) Position() Pos     { return s.Pos_ }

func (*VarDecl) stmtNode()      {}
func (*Block) stmtNode()        {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Ident references a variable or names a function in call position.
type Ident struct {
	Pos_ Pos
	Name string
	// Global and Slot are the resolver's binding: Program.Globals[Slot]
	// when Global is set, otherwise the enclosing function's local Slot.
	// Slot is -1 for a name bound to no variable.
	Global bool
	Slot   int
}

// IntLit is an integer literal.
type IntLit struct {
	Pos_ Pos
	V    int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Pos_ Pos
	V    float64
}

// StringLit is a string literal.
type StringLit struct {
	Pos_ Pos
	V    string
}

// BoolLit is true or false.
type BoolLit struct {
	Pos_ Pos
	V    bool
}

// NilLit is the nil literal.
type NilLit struct{ Pos_ Pos }

// ArrayLit is [e1, e2, ...].
type ArrayLit struct {
	Pos_  Pos
	Elems []Expr
}

// MapLit is {"k": v, ...}.
type MapLit struct {
	Pos_ Pos
	Keys []Expr
	Vals []Expr
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Pos_ Pos
	Op   TokenKind
	X    Expr
}

// BinaryExpr is a binary operation, including && and || (which
// short-circuit).
type BinaryExpr struct {
	Pos_ Pos
	Op   TokenKind
	L, R Expr
}

// CallExpr invokes a user function or host function by name.
type CallExpr struct {
	Pos_ Pos
	Name string
	Args []Expr
	// Func is the callee's index in Program.Funcs, or -1; otherwise Host
	// is its index in the Bindings, or -1. The resolver sets both.
	Func, Host int
}

// IndexExpr is x[i] on arrays (int index) and maps (string index).
type IndexExpr struct {
	Pos_ Pos
	X    Expr
	I    Expr
}

// Position implementations.
func (e *Ident) Position() Pos      { return e.Pos_ }
func (e *IntLit) Position() Pos     { return e.Pos_ }
func (e *FloatLit) Position() Pos   { return e.Pos_ }
func (e *StringLit) Position() Pos  { return e.Pos_ }
func (e *BoolLit) Position() Pos    { return e.Pos_ }
func (e *NilLit) Position() Pos     { return e.Pos_ }
func (e *ArrayLit) Position() Pos   { return e.Pos_ }
func (e *MapLit) Position() Pos     { return e.Pos_ }
func (e *UnaryExpr) Position() Pos  { return e.Pos_ }
func (e *BinaryExpr) Position() Pos { return e.Pos_ }
func (e *CallExpr) Position() Pos   { return e.Pos_ }
func (e *IndexExpr) Position() Pos  { return e.Pos_ }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StringLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*NilLit) exprNode()     {}
func (*ArrayLit) exprNode()   {}
func (*MapLit) exprNode()     {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*CallExpr) exprNode()   {}
func (*IndexExpr) exprNode()  {}
