package elastic

import "sync"

// Right is one delegation-service privilege a principal may hold.
type Right uint8

// Rights gating RDS operations, per the paper's access-control model
// for dps and dpis.
const (
	RightDelegate Right = iota + 1
	RightInstantiate
	RightControl
	RightSend
	RightQuery
	RightDelete
)

// String names the right.
func (r Right) String() string {
	switch r {
	case RightDelegate:
		return "delegate"
	case RightInstantiate:
		return "instantiate"
	case RightControl:
		return "control"
	case RightSend:
		return "send"
	case RightQuery:
		return "query"
	case RightDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Capability bounds what a principal's delegated programs may do, as
// verified by static analysis at admission time. Each axis uses the
// same convention: a nil slice leaves the axis unrestricted, an empty
// non-nil slice denies everything on it, and entries are host-function
// names (Hosts) or MIB OID prefixes (Reads/Writes, "*" = whole MIB).
type Capability struct {
	// Hosts lists the host bindings the principal's programs may call.
	Hosts []string
	// Reads lists OID prefixes the programs may read via the MIB
	// primitives (mibGet/mibNext/mibWalk/snmpGet/snmpNext).
	Reads []string
	// Writes lists OID prefixes the programs may write via mibSet.
	Writes []string
	// MaxCost caps the statically estimated instruction cost of the
	// principal's programs; 0 means no per-principal ceiling. Any
	// nonzero cap also rejects programs whose cost is unbounded.
	MaxCost uint64
}

// ACL maps principals to rights. A nil *ACL permits everything (the
// first prototype's "trivial access control"); a non-nil ACL denies by
// default.
type ACL struct {
	mu     sync.RWMutex
	grants map[string]map[Right]bool
	caps   map[string]Capability
}

// NewACL returns an empty (deny-all) ACL.
func NewACL() *ACL {
	return &ACL{
		grants: make(map[string]map[Right]bool),
		caps:   make(map[string]Capability),
	}
}

// Grant gives principal the listed rights.
func (a *ACL) Grant(principal string, rights ...Right) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.grants[principal]
	if !ok {
		g = make(map[Right]bool)
		a.grants[principal] = g
	}
	for _, r := range rights {
		g[r] = true
	}
}

// Revoke removes the listed rights from principal.
func (a *ACL) Revoke(principal string, rights ...Right) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.grants[principal]
	if !ok {
		return
	}
	for _, r := range rights {
		delete(g, r)
	}
}

// Allow reports whether principal holds r. A nil ACL allows everything.
func (a *ACL) Allow(principal string, r Right) bool {
	if a == nil {
		return true
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.grants[principal][r]
}

// Limit attaches a capability to principal; subsequent delegations by
// that principal are verified against it. Replaces any previous
// capability.
func (a *ACL) Limit(principal string, c Capability) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.caps[principal] = c
}

// Unlimit removes principal's capability, returning it to unrestricted
// delegation (rights permitting).
func (a *ACL) Unlimit(principal string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.caps, principal)
}

// CapabilityFor returns principal's capability, if one is set. A nil
// ACL has no capabilities.
func (a *ACL) CapabilityFor(principal string) (Capability, bool) {
	if a == nil {
		return Capability{}, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	c, ok := a.caps[principal]
	return c, ok
}
