package dpl

import (
	"slices"
	"unsafe"
)

// Scratch is one translation's working memory: the token stream and the
// slab of the program's nodes, the resolver, the compiler and the arrays
// it writes code into, the constant index, the optimizer's tables, the
// abstract walker and the structural verifier. Every pass borrows from
// it, so a caller that translates many programs keeps one scratch per
// translation in flight and clears it between them (analysis.Scratch
// does, in one pool). The package-level Parse and Optimize each run on
// a fresh one.
//
// A scratch holds one program at a time. Its Parse reuses the memory of
// the program parsed before, and the code its Compile writes stays in
// its arrays until Optimize copies it out.
type Scratch struct {
	Walker
	// The parser's: the token stream, and the stacks that gather a
	// list's elements until the list is complete and moves, at its exact
	// length, into the slab.
	toks    []Token
	stmts   []Stmt
	exprs   []Expr // call arguments, array elements, map keys
	vals    []Expr // map values
	names   []string
	globals []*VarDecl
	decls   []*FuncDecl
	slab    slab
	r       resolver
	fc      funcCompiler
	// The arrays Compile writes all code, the position table and the
	// constants into. lent is the program whose code they hold until
	// Optimize copies it out; a compile that finds them lent leaves them
	// to that program and makes new ones.
	code   []Instr
	marks  []Mark
	consts []Value
	lent   *Compiled
	pool   constPool // the compiler's, then the optimizer's, constant index
	opt    optimizer
	v      structVerifier
}

// lowering returns the arrays for a compile of c: n instructions,
// nMarks marks and room for nConsts constants.
func (s *Scratch) lowering(c *Compiled, n, nMarks, nConsts int) ([]Instr, []Mark, []Value) {
	if s.lent != nil {
		s.code, s.marks, s.consts = nil, nil, nil
	}
	s.lent = c
	s.code, s.marks, s.consts = resize(s.code, n), resize(s.marks, nMarks), resize(s.consts, nConsts)
	return s.code, s.marks, s.consts[:0]
}

// Clear empties s of its last program, so that it reaches nothing of
// it, and returns the bytes its buffers hold, which a caller keeping s
// for the next translation bounds.
func (s *Scratch) Clear() int {
	if s.lent != nil {
		s.code, s.marks, s.consts, s.lent = nil, nil, nil, nil
	}
	clear(s.toks) // each lex starts them over, so they are all in len
	n := sizeOf(s.toks) + clearAll(s.stmts) + clearAll(s.exprs) + clearAll(s.vals) + clearAll(s.names) +
		clearAll(s.globals) + clearAll(s.decls) + s.slab.free() + s.r.reset(nil, nil) + s.fc.reset(nil) +
		sizeOf(s.code) + sizeOf(s.marks) + clearAll(s.consts) + s.pool.reset(nil) + s.opt.reset() + s.v.reset() +
		clearAll(s.stack) + clearAll(s.locals) + clearAll(s.nodes) + sizeOf(s.ids) + sizeOf(s.unknown) + sizeOf(s.joins) +
		sizeOf(s.set) + sizeOf(s.path) + s.g.reset()
	return n
}

// mapEntry is what a map of the scratch holds per entry, in bytes, at
// most: a slot of the constant index, the wider map, with its share of
// control bytes and of the slots a map keeps free.
const mapEntry = 64

// clearAll zeroes the whole array under s and returns its size in bytes.
func clearAll[T any](s []T) int {
	clear(s[:cap(s)])
	return sizeOf(s)
}

// sizeOf is the size in bytes of the array under s.
func sizeOf[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// appendDoubling appends v to s, doubling the array when it is full:
// append grows a large array by a quarter at a time, so that what it
// allocates on the way to n elements comes to about five times n,
// where doubling makes it twice.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, v)
}
