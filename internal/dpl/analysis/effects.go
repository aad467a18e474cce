package analysis

import (
	"fmt"
	"sort"
	"strings"

	"mbd/internal/dpl"
)

// Capability / effect inference. Each function's effect summary is the
// set of host bindings it can invoke and the MIB OID prefixes it can
// read or write, closed transitively over the user-function call graph.
// The elastic process compares the program-level summary against the
// delegating principal's grant at admission time, making the ACL a
// statically verified contract instead of a runtime tripwire.

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
// The bytecode verifier uses this to recover effects from compiled
// code with the same rules source-level inference applies.
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

// CallsHost reports whether e may invoke the named host binding.
func (e *Effects) CallsHost(name string) bool {
	for _, h := range e.Hosts {
		if h.Name == name {
			return true
		}
	}
	return false
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

// effectSet accumulates effects during inference.
type effectSet struct {
	hosts  map[string]dpl.Pos
	reads  map[string]dpl.Pos
	writes map[string]dpl.Pos
}

func newEffectSet() *effectSet {
	return &effectSet{
		hosts:  make(map[string]dpl.Pos),
		reads:  make(map[string]dpl.Pos),
		writes: make(map[string]dpl.Pos),
	}
}

func addOnce(m map[string]dpl.Pos, k string, pos dpl.Pos) bool {
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = pos
	return true
}

// mergeFrom folds o into s, reporting whether s grew.
func (s *effectSet) mergeFrom(o *effectSet) bool {
	grew := false
	for k, p := range o.hosts {
		grew = addOnce(s.hosts, k, p) || grew
	}
	for k, p := range o.reads {
		grew = addOnce(s.reads, k, p) || grew
	}
	for k, p := range o.writes {
		grew = addOnce(s.writes, k, p) || grew
	}
	return grew
}

// finalize converts the accumulator to a sorted, prefix-minimal
// Effects value.
func (s *effectSet) finalize() Effects {
	return Effects{
		Hosts:  sortedEffects(s.hosts, false),
		Reads:  sortedEffects(s.reads, true),
		Writes: sortedEffects(s.writes, true),
	}
}

func sortedEffects(m map[string]dpl.Pos, minimize bool) []Effect {
	out := make([]Effect, 0, len(m))
	for k, p := range m {
		out = append(out, Effect{Name: k, Pos: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if !minimize {
		return out
	}
	// Drop prefixes covered by another (shorter) prefix or a wildcard.
	kept := out[:0]
	for i, e := range out {
		covered := false
		for j, o := range out {
			if i == j {
				continue
			}
			if OIDCovers(o.Name, e.Name) && (o.Name != e.Name || j < i) {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, e)
		}
	}
	return kept
}

// inferEffects computes per-function effect sets, transitively closed
// over user calls, plus DPL006 diagnostics for dynamic OID arguments.
func inferEffects(prog *dpl.Program, diags *[]dpl.Diagnostic) (sets map[*dpl.FuncDecl]*effectSet, initSet *effectSet) {
	direct := make(map[*dpl.FuncDecl]*effectSet, len(prog.Funcs))
	calls := make(map[*dpl.FuncDecl]map[*dpl.FuncDecl]bool, len(prog.Funcs))

	collect := func(f *dpl.FuncDecl, body dpl.Node, set *effectSet) {
		walkCalls(body, func(c *dpl.CallExpr) {
			if c.Func >= 0 {
				// User functions resolve before host bindings (and
				// shadowing a host name is a Check error anyway).
				callee := prog.Funcs[c.Func]
				if f != nil {
					if calls[f] == nil {
						calls[f] = make(map[*dpl.FuncDecl]bool)
					}
					calls[f][callee] = true
				}
				return
			}
			if c.Host < 0 {
				return // unknown name; Check rejects it
			}
			addOnce(set.hosts, c.Name, c.Position())
			prim, ok := mibPrimitives[c.Name]
			if !ok || prim.argIdx >= len(c.Args) {
				return
			}
			arg := c.Args[prim.argIdx]
			prefix, exact, okPrefix := constOIDPrefix(arg)
			if !okPrefix {
				prefix = Wildcard
				*diags = append(*diags, dpl.Diagnostic{
					Code: dpl.CodeDynamicOID,
					Sev:  dpl.SevWarning,
					Pos:  arg.Position(),
					Msg:  fmt.Sprintf("OID argument of %s is not a constant; inferred effect widens to the whole MIB", c.Name),
				})
			}
			_ = exact
			if prim.write {
				addOnce(set.writes, prefix, arg.Position())
			} else {
				addOnce(set.reads, prefix, arg.Position())
			}
		})
	}

	for _, f := range prog.Funcs {
		set := newEffectSet()
		collect(f, f.Body, set)
		direct[f] = set
	}

	// Global initializers run before any entry point; their effects
	// belong to the program but to no function.
	initSet = newEffectSet()
	for _, g := range prog.Globals {
		if g.Init != nil {
			collect(nil, g.Init, initSet)
		}
	}

	// Transitive closure: iterate until no summary grows.
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			for callee := range calls[f] {
				if direct[f].mergeFrom(direct[callee]) {
					changed = true
				}
			}
		}
	}
	return direct, initSet
}
