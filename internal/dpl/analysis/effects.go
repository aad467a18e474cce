package analysis

import (
	"slices"
	"strings"

	"mbd/internal/dpl"
)

// Capability / effect inference. A program's effect summary is the set
// of host bindings it can invoke and the MIB OID prefixes it can read or
// write. It is recovered from object code, never from source: Recover
// walks the optimized code a node runs and ships, and the bytecode
// verifier walks every artifact it receives with the same function, so
// the verdict a node declares and the effects each receiver proves are
// one walk over the same bytes. The elastic process compares the summary
// against the delegating principal's grant at admission time, making
// the ACL a statically verified contract instead of a runtime tripwire.

// Wildcard marks an effect whose OID could not be folded: the program
// may touch the entire MIB.
const Wildcard = "*"

// Effect is one element of an effect set: a host function name, or an
// OID prefix for MIB reads/writes, with one exemplar source position.
type Effect struct {
	Name string
	Pos  dpl.Pos
}

// Effects summarizes what a function (or whole program) can reach.
type Effects struct {
	// Hosts are the host bindings invocable, sorted by name.
	Hosts []Effect
	// Reads are MIB OID prefixes readable via the MIB primitives
	// (mibGet/mibNext/mibWalk/snmpGet/snmpNext), minimal and sorted.
	// A Wildcard entry subsumes everything.
	Reads []Effect
	// Writes are OID prefixes writable via mibSet, same encoding.
	Writes []Effect
}

// mibPrimitives maps the MIB host primitives to the index of their OID
// argument and whether they write.
var mibPrimitives = map[string]struct {
	argIdx int
	write  bool
}{
	"mibGet":   {0, false},
	"mibNext":  {0, false},
	"mibWalk":  {0, false},
	"mibSet":   {0, true},
	"snmpGet":  {1, false},
	"snmpNext": {1, false},
}

// MIBPrimitive reports whether name is one of the MIB host primitives,
// and if so which argument carries the OID and whether the call writes.
func MIBPrimitive(name string) (oidArg int, write, ok bool) {
	p, ok := mibPrimitives[name]
	return p.argIdx, p.write, ok
}

// HostNames returns the sorted host-function names of e.
func (e *Effects) HostNames() []string { return effectNames(e.Hosts) }

// ReadPrefixes returns the sorted read prefixes of e.
func (e *Effects) ReadPrefixes() []string { return effectNames(e.Reads) }

// WritePrefixes returns the sorted write prefixes of e.
func (e *Effects) WritePrefixes() []string { return effectNames(e.Writes) }

func effectNames(es []Effect) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

// String renders a compact one-line summary.
func (e *Effects) String() string {
	var parts []string
	if len(e.Hosts) > 0 {
		parts = append(parts, "hosts="+strings.Join(e.HostNames(), ","))
	}
	if len(e.Reads) > 0 {
		parts = append(parts, "reads="+strings.Join(e.ReadPrefixes(), ","))
	}
	if len(e.Writes) > 0 {
		parts = append(parts, "writes="+strings.Join(e.WritePrefixes(), ","))
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, " ")
}

// OIDCovers reports whether allowed covers oid as an OID prefix at a
// component boundary. Wildcard covers everything.
func OIDCovers(allowed, oid string) bool {
	if allowed == Wildcard {
		return true
	}
	if oid == Wildcard {
		return false // only a wildcard grant covers a wildcard effect
	}
	return oid == allowed || strings.HasPrefix(oid, allowed+".")
}

// Site is one host call in object code, as Recover reports it.
type Site struct {
	// Func is the index of the function holding the call, or -1 for the
	// global initializers; IP is the call's position in that block.
	Func, IP int
	// Call is the OpCallHost instruction: A is the host index, B the
	// argument count.
	Call dpl.Instr
	// Host is the name c.HostNames gives the host index.
	Host string
	// Pos is the call in the source, the zero Pos for code that carries
	// no positions (see dpl.Compiled.Marks).
	Pos dpl.Pos
	// MIB marks a call of a MIB primitive. OID is then the prefix its
	// OID argument provably starts with, or Wildcard, and Write says
	// whether the call writes.
	MIB   bool
	OID   string
	Write bool
}

// Recover is the recovery over object code: effect inference and
// cost. It runs dpl's abstract walker, which tracks constant values and
// string heads through the stack and a block's locals, over every block
// of c, calls visit, if set, with each host call whose host index is in
// range, and returns the program's summary, every site folded, sorted
// and prefix-minimal, and the cost of the code: the global initializers
// and then the costliest function, any of which may be the entry point.
func (s *Scratch) Recover(c *dpl.Compiled, visit func(Site)) (Effects, CostEstimate) {
	if visit == nil {
		visit = func(Site) {}
	}
	effects := s.recover(c, visit)
	return effects, (&coster{c: c, s: s}).program()
}

// recover walks every block of c, leaving the notes the graphs read
// (see walk), and with visit set recovers the effects, calling visit
// with each site.
func (s *Scratch) recover(c *dpl.Compiled, visit func(Site)) Effects {
	all := effectSet{s.found.hosts[:0], s.found.reads[:0], s.found.writes[:0]}
	defer func() { s.found = all }()
	s.notes = s.notes[:0]
	for fn := -1; fn < len(c.Funcs); fn++ {
		_, code, nLocals := c.Block(fn)
		marks := c.Marks(fn)
		if visit == nil {
			s.walk(c, fn, nLocals, nil)
			continue
		}
		s.walk(c, fn, nLocals, func(ip int, stack []dpl.Abs) {
			in := code[ip]
			if in.A < 0 || int(in.A) >= len(c.HostNames) {
				return
			}
			m, _ := markAt(marks, ip, dpl.MarkCall)
			s := Site{Func: fn, IP: ip, Call: in, Host: c.HostNames[in.A], Pos: m.Pos}
			if oidArg, write, ok := MIBPrimitive(s.Host); ok && oidArg < int(in.B) {
				var arg dpl.Abs // unknown when the stack holds fewer than the arguments
				if len(stack) >= int(in.B) {
					arg = stack[len(stack)-int(in.B)+oidArg]
				}
				var known bool
				if s.OID, known = arg.Prefix(); !known {
					s.OID = Wildcard
				}
				s.MIB, s.Write = true, write
			}
			all.add(s)
			visit(s)
		})
	}
	return all.finalize().clone()
}

// effectSet gathers effects in the order their sites are found, one
// entry per name: the first found, so its position is the first site's.
type effectSet struct {
	hosts, reads, writes []Effect
}

// reset empties s, keeping its arrays.
func (s *effectSet) reset() {
	s.hosts, s.reads, s.writes = s.hosts[:0], s.reads[:0], s.writes[:0]
}

// free clears s's arrays and returns the bytes they hold.
func (s *effectSet) free() int {
	n := clearAll(s.hosts) + clearAll(s.reads) + clearAll(s.writes)
	s.reset()
	return n
}

func (s *effectSet) add(site Site) {
	s.hosts = addEffect(s.hosts, Effect{Name: site.Host, Pos: site.Pos})
	switch {
	case !site.MIB:
	case site.Write:
		s.writes = addEffect(s.writes, Effect{Name: site.OID, Pos: site.Pos})
	default:
		s.reads = addEffect(s.reads, Effect{Name: site.OID, Pos: site.Pos})
	}
}

func (s *effectSet) merge(o Effects) {
	s.hosts = slices.Grow(s.hosts, len(o.Hosts))
	s.reads = slices.Grow(s.reads, len(o.Reads))
	s.writes = slices.Grow(s.writes, len(o.Writes))
	for _, e := range o.Hosts {
		s.hosts = addEffect(s.hosts, e)
	}
	for _, e := range o.Reads {
		s.reads = addEffect(s.reads, e)
	}
	for _, e := range o.Writes {
		s.writes = addEffect(s.writes, e)
	}
}

func addEffect(es []Effect, e Effect) []Effect {
	if slices.ContainsFunc(es, func(x Effect) bool { return x.Name == e.Name }) {
		return es
	}
	return append(es, e)
}

// effectSets returns n empty effect sets of the scratch's.
func (s *Scratch) effectSets(n int) []effectSet {
	if cap(s.direct) < n {
		s.direct = append(s.direct[:cap(s.direct)], make([]effectSet, n-cap(s.direct))...)
	}
	s.direct = s.direct[:n]
	for i := range s.direct {
		s.direct[i].reset()
	}
	return s.direct
}

// reach gathers into s.reached the effects of function fn, own[fn],
// and those of every function its code calls, depth first. s.flags
// marks the functions reached.
func (s *Scratch) reach(c *dpl.Compiled, fn int, own []Effects) {
	if s.flags[fn] {
		return
	}
	s.flags[fn] = true
	s.reached.merge(own[fn])
	for _, in := range c.Funcs[fn].Code {
		if in.Op == dpl.OpCall && in.A >= 0 && int(in.A) < len(c.Funcs) {
			s.reach(c, int(in.A), own)
		}
	}
}

// finalize sorts the set in place into a summary, keeping an OID prefix
// only where no other prefix covers it.
func (s *effectSet) finalize() Effects {
	slices.SortFunc(s.hosts, byName)
	return Effects{Hosts: s.hosts, Reads: minimal(s.reads), Writes: minimal(s.writes)}
}

// clone copies e into one array of its own.
func (e Effects) clone() Effects {
	n := len(e.Hosts) + len(e.Reads) + len(e.Writes)
	if n == 0 {
		return Effects{}
	}
	all := make([]Effect, 0, n)
	part := func(es []Effect) []Effect {
		if len(es) == 0 {
			return nil
		}
		all = append(all, es...)
		return all[len(all)-len(es) : len(all) : len(all)]
	}
	return Effects{Hosts: part(e.Hosts), Reads: part(e.Reads), Writes: part(e.Writes)}
}

func minimal(es []Effect) []Effect {
	if i := slices.IndexFunc(es, func(e Effect) bool { return e.Name == Wildcard }); i >= 0 {
		return es[i : i+1] // it covers every other prefix
	}
	slices.SortFunc(es, byName)
	// Other than the wildcard, a covering prefix sorts before what it
	// covers, and covering is transitive, so checking the entries kept
	// so far is enough.
	kept := es[:0]
	for _, e := range es {
		if !slices.ContainsFunc(kept, func(k Effect) bool { return OIDCovers(k.Name, e.Name) }) {
			kept = append(kept, e)
		}
	}
	return kept
}

func byName(a, b Effect) int { return strings.Compare(a.Name, b.Name) }
