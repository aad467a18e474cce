package dpl

import "slices"

// Graph is one code block's control-flow graph: its basic blocks in
// code order, with the edges OpcodeFlow gives them, less the way out of
// a branch its builder was told goes one way only. Only build works
// control flow out of the opcode stream; the walker, the optimizer, the
// structural verifier and the analyzer (internal/dpl/analysis) read it.
type Graph struct {
	Code   []Instr
	Blocks []BasicBlock
	At     []int32 // per instruction: the block holding it
	lead   []uint8 // per instruction: why a block starts there (see mark)
	work   []int32 // the reach work list
}

// BasicBlock is Code[Start:End]. Succ holds the blocks control can go
// to next, the fall-through first, -1 for none; Exit marks control
// leaving the function (a return, or the end of the code); Reach says
// the entry reaches the block, and Entered that some edge lands on it.
type BasicBlock struct {
	Start, End           int32
	Succ                 [2]int32
	Exit, Reach, Entered bool
}

// Why a block starts at an instruction.
const (
	leads  uint8 = 1 << iota // the entry, or control cannot only fall into it
	jumped                   // a forward jump lands on it
	looped                   // a backward jump lands on it: a loop head
)

// build makes g the graph of code. branch, when not nil, says where
// the branch at ip can go, in place of both ways.
func (g *Graph) build(code []Instr, branch func(ip int) (falls, jumps bool)) *Graph {
	g.Code, g.Blocks, g.At = code, g.Blocks[:0], slices.Grow(g.At[:0], len(code))[:len(code)]
	lead := g.mark(code)
	for ip := range code {
		if lead[ip] != 0 {
			g.Blocks = append(g.Blocks, BasicBlock{Start: int32(ip), Succ: [2]int32{-1, -1}})
		}
		g.Blocks[len(g.Blocks)-1].End = int32(ip + 1)
		g.At[ip] = int32(len(g.Blocks) - 1)
	}
	for i := range g.Blocks {
		b := &g.Blocks[i]
		ip := int(b.End) - 1
		falls, jumps := OpcodeFlow(code[ip].Op)
		if falls && jumps && branch != nil {
			falls, jumps = branch(ip)
		}
		b.Exit = !falls && !jumps
		for k, to := range [2]int{ip + 1, int(code[ip].A)} {
			switch {
			case k == 0 && !falls || k == 1 && !jumps || to < 0 || to > len(code):
			case to == len(code):
				b.Exit = true
			default:
				b.Succ[k] = g.At[to]
				g.Blocks[b.Succ[k]].Entered = true
			}
		}
	}
	if len(code) == 0 {
		return g
	}
	work := append(g.work[:0], 0)
	g.Blocks[0].Reach = true
	for len(work) > 0 {
		succ := g.Blocks[work[len(work)-1]].Succ
		work = work[:len(work)-1]
		for _, t := range succ {
			if t >= 0 && !g.Blocks[t].Reach {
				g.Blocks[t].Reach = true
				work = append(work, t)
			}
		}
	}
	g.work = work
	return g
}

// mark returns, per instruction of code and one past the last, why a
// block starts there: build's first step, and all the walker reads.
func (g *Graph) mark(code []Instr) []uint8 {
	lead := resize(g.lead, len(code)+1)
	g.lead, lead[0] = lead, leads
	for ip, in := range code {
		falls, jumps := OpcodeFlow(in.Op)
		if t := int(in.A); jumps && t > ip && t < len(code) {
			lead[t] |= leads | jumped
		} else if jumps && t >= 0 && t <= ip {
			lead[t] |= leads | looped
		}
		if !falls || jumps {
			lead[ip+1] |= leads
		}
	}
	return lead
}

// starts reports whether a block starts at ip.
func (g *Graph) starts(ip int) bool { return ip == 0 || g.At[ip] != g.At[ip-1] }

// Graph makes the scratch's graph that of code, as build does. It is
// the walker's, valid until the scratch builds another: the next Graph,
// Walk, Optimize or VerifyStructure.
func (s *Scratch) Graph(code []Instr, branch func(ip int) (falls, jumps bool)) *Graph {
	return s.g.build(code, branch)
}

// reset clears g of its code and returns the bytes its buffers hold.
func (g *Graph) reset() int {
	g.Code = nil
	return sizeOf(g.Blocks) + sizeOf(g.At) + sizeOf(g.lead) + sizeOf(g.work)
}
