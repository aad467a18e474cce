// Package mbd implements the Management-by-Delegation server — the
// paper's primary contribution. An MbD server is an elastic process
// co-located with a managed device: delegated management programs run
// inside it as DPIs with *local* access to the device's MIB through
// host functions, while remote managers interact with the same MIB only
// through SNMP. Decentralizing a management function is therefore one
// Delegate + one Instantiate, after which the manager receives computed
// reports and exception notifications instead of micro-polling raw
// variables.
package mbd

import (
	"fmt"
	"sync"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/federation"
	"mbd/internal/mib"
	"mbd/internal/obs"
	"mbd/internal/oid"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

// Config parameterizes an MbD server.
type Config struct {
	// Device supplies the local MIB instrumentation. Required.
	Device *mib.Device
	// Community protects the co-located SNMP agent (default "public").
	Community string
	// Clock, ACL and resource limits pass through to the elastic
	// process.
	Clock          elastic.Clock
	ACL            *elastic.ACL
	MaxDPIs        int
	MaxStepsPerDPI uint64
	MailboxDepth   int
	// StrictAdmission and CostCeiling pass through to the elastic
	// process's static-analysis admission policy.
	StrictAdmission bool
	CostCeiling     uint64
	// Multi-tenant isolation, passed through to the elastic process:
	// the default per-principal Quota, per-principal overrides, the
	// weighted-fair scheduler's worker count and step quantum, and the
	// repository byte ceiling. See elastic.Config for the zero-value
	// semantics.
	Quota              elastic.Quota
	TenantQuotas       map[string]elastic.Quota
	SchedWorkers       int
	SchedQuantum       uint64
	MaxRepositoryBytes int64
	// ExtraBindings are additional host functions merged into the
	// allowed-function table before the process is built; on a name
	// clash they replace the server's own.
	ExtraBindings *dpl.Bindings
	// Obs, when set, collects the server's metrics: the elastic
	// process's runtime counters, the SNMP agent's protocol counters,
	// and the MIB tree's operation counters all register on it. Nil
	// leaves the process on its private registry and skips agent/tree
	// instrumentation.
	Obs *obs.Registry
	// Tracer records delegation-lifecycle spans; nil disables tracing.
	Tracer *obs.Tracer
	// EnableViews attaches the view agent (a vdl.MCVA) to the device
	// tree: views defined through it stay continuously materialized
	// with O(delta) work per MIB write, and its view services
	// (viewDefine, viewQuery, ...) join the allowed-function table. The
	// schema covers the MIB-II tables plus, when Federation is set, the
	// federation rollup table — so one view can range over the whole
	// domain tree. Install on the RDS server with
	// rds.WithViewHandler(srv.Views()) and mount srv.Views().Handler()
	// at vdl.OIDViews to serve the same views over SNMP.
	EnableViews bool
	// ViewDefs are VDL documents (each may hold several views)
	// installed at startup; an invalid definition fails New.
	ViewDefs []string
	// Federation, when set, seats this server in a management domain:
	// the node roots Federation.Domain (accepting member joins,
	// cascading delegations, rolling up reports) and, with a Parent
	// address, joins the domain above as a child. Proc, Obs and Tracer
	// are filled in from the server; the federation tables mount on the
	// device tree at federation.OIDFederation. Install the node on the
	// RDS server with rds.WithPeerHandler(srv.Federation()).
	Federation *federation.Config
}

// Server is an MbD server instance.
type Server struct {
	dev   *mib.Device
	proc  *elastic.Process
	agent *snmp.Agent
	fed   *federation.Node
	views *vdl.MCVA

	mu    sync.Mutex
	peers map[string]*snmp.Client

	traps trapState
}

// MaxWalk bounds mibWalk results so a delegated agent cannot build an
// unbounded array.
const MaxWalk = 100_000

// New builds an MbD server around cfg.Device.
func New(cfg Config) (*Server, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("mbd: config needs a Device")
	}
	if cfg.Community == "" {
		cfg.Community = "public"
	}
	s := &Server{
		dev:   cfg.Device,
		peers: make(map[string]*snmp.Client),
	}
	bindings := dpl.Std()
	// merge adds src's functions: a Bindings table hands out calls, not
	// function values, so each is re-registered as a call through src.
	merge := func(src *dpl.Bindings) {
		for _, name := range src.Names() {
			i, arity, _ := src.Lookup(name)
			bindings.Register(name, arity, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
				return src.Call(i, env, args)
			})
		}
	}
	if cfg.EnableViews {
		schema := vdl.MIB2()
		if cfg.Federation != nil {
			schema.AddFederation()
		}
		s.views = vdl.NewMCVA(cfg.Device.Tree(), schema)
		merge(s.views.Bindings())
	}
	if cfg.ExtraBindings != nil {
		merge(cfg.ExtraBindings)
	}
	s.registerMIBServices(bindings)
	s.registerTrapService(bindings)
	s.proc = elastic.NewProcess(elastic.Config{
		Clock:           cfg.Clock,
		Bindings:        bindings,
		ACL:             cfg.ACL,
		MaxDPIs:         cfg.MaxDPIs,
		MaxStepsPerDPI:  cfg.MaxStepsPerDPI,
		MailboxDepth:    cfg.MailboxDepth,
		StrictAdmission: cfg.StrictAdmission,
		CostCeiling:     cfg.CostCeiling,
		Obs:             cfg.Obs,
		Tracer:          cfg.Tracer,

		Quota:              cfg.Quota,
		TenantQuotas:       cfg.TenantQuotas,
		SchedWorkers:       cfg.SchedWorkers,
		SchedQuantum:       cfg.SchedQuantum,
		MaxRepositoryBytes: cfg.MaxRepositoryBytes,
	})
	s.agent = snmp.NewAgent(cfg.Device.Tree(), cfg.Community)
	if cfg.Obs != nil {
		s.agent.Instrument(cfg.Obs)
		instrumentTree(cfg.Obs, cfg.Device.Tree())
	}
	if cfg.Federation != nil {
		fc := *cfg.Federation
		fc.Proc = s.proc
		if fc.Obs == nil {
			fc.Obs = cfg.Obs
		}
		if fc.Tracer == nil {
			fc.Tracer = cfg.Tracer
		}
		node, err := federation.New(fc)
		if err != nil {
			s.Stop()
			return nil, err
		}
		if err := federation.Mount(cfg.Device.Tree(), node, federation.OIDFederation); err != nil {
			s.Stop()
			return nil, fmt.Errorf("mbd: mounting federation subtree: %w", err)
		}
		node.Start()
		s.fed = node
	}
	if s.views != nil {
		if cfg.Obs != nil {
			s.views.Instrument(cfg.Obs)
		}
		// Installed only now: a federation-scoped view scans the rollup
		// table mounted above.
		for _, src := range cfg.ViewDefs {
			if _, err := s.views.DefineAll(src); err != nil {
				s.Stop()
				return nil, fmt.Errorf("mbd: installing views: %w", err)
			}
		}
		s.views.Start()
	}
	return s, nil
}

// instrumentTree publishes a mib.Tree's operation counters on reg. The
// tree counts unconditionally (single atomic adds on its own struct, no
// obs dependency); this bridges the snapshots out as mib_*-series.
func instrumentTree(reg *obs.Registry, t *mib.Tree) {
	for _, c := range []struct {
		name, help string
		read       func(mib.TreeStats) uint64
	}{
		{"mib_gets_total", "tree Get dispatches", func(s mib.TreeStats) uint64 { return s.Gets }},
		{"mib_get_nexts_total", "tree GetNext dispatches", func(s mib.TreeStats) uint64 { return s.GetNexts }},
		{"mib_sets_total", "tree Set dispatches", func(s mib.TreeStats) uint64 { return s.Sets }},
		{"mib_walks_total", "tree Walk/WalkBulk invocations", func(s mib.TreeStats) uint64 { return s.Walks }},
		{"mib_walk_visited_total", "instances visited by walks", func(s mib.TreeStats) uint64 { return s.WalkVisited }},
	} {
		read := c.read
		reg.FuncCounter(c.name, c.help, func() uint64 { return read(t.Stats()) })
	}
}

// Process exposes the underlying elastic process (Delegate /
// Instantiate / Control / Send / Query / Subscribe).
func (s *Server) Process() *elastic.Process { return s.proc }

// Agent exposes the co-located SNMP agent serving the same MIB.
func (s *Server) Agent() *snmp.Agent { return s.agent }

// Device returns the managed device.
func (s *Server) Device() *mib.Device { return s.dev }

// Federation returns the server's federation node (nil when the server
// is not federated).
func (s *Server) Federation() *federation.Node { return s.fed }

// Views returns the server's view agent (nil unless
// Config.EnableViews).
func (s *Server) Views() *vdl.MCVA { return s.views }

// Stop terminates the view engine and federation node (when present)
// and all delegated instances.
func (s *Server) Stop() {
	if s.views != nil {
		s.views.Close()
	}
	if s.fed != nil {
		s.fed.Stop()
	}
	s.proc.Stop()
}

// AddPeer registers a subordinate SNMP agent reachable from delegated
// programs via snmpGet/snmpNext under the given name — the paper's
// manager-of-managers configuration, where an MbD server fronts a LAN
// of dumb SNMP devices.
func (s *Server) AddPeer(name string, client *snmp.Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers[name] = client
}

func (s *Server) peer(name string) (*snmp.Client, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.peers[name]
	return c, ok
}

// ToDPL converts an SMI value to a DPL value: integers and unsigned
// counters become ints, strings stay strings, OIDs and IP addresses
// render as dotted strings, NULL becomes nil.
func ToDPL(v mib.Value) dpl.Value {
	switch v.Kind {
	case mib.KindNull:
		return dpl.Value{}
	case mib.KindInteger:
		return dpl.Int(v.Int)
	case mib.KindOctetString:
		return dpl.Str(string(v.Bytes))
	case mib.KindOID:
		return dpl.Str(v.OID.String())
	case mib.KindIPAddress:
		return dpl.Str(v.String())
	default:
		return dpl.Int(int64(v.Uint)) // counters, gauges, ticks
	}
}

// FromDPL converts a DPL value to an SMI value for mibSet: ints map to
// INTEGER, strings to OCTET STRING, bools to INTEGER 0/1, nil to NULL.
func FromDPL(v dpl.Value) (mib.Value, error) {
	switch v.Kind() {
	case dpl.KindNil:
		return mib.Null(), nil
	case dpl.KindBool:
		if b, _ := v.AsBool(); b {
			return mib.Int(1), nil
		}
		return mib.Int(0), nil
	case dpl.KindInt:
		i, _ := v.AsInt()
		return mib.Int(i), nil
	case dpl.KindString:
		s, _ := v.AsString()
		return mib.Str(s), nil
	default:
		return mib.Value{}, fmt.Errorf("mbd: cannot write %s into a MIB", dpl.TypeName(v))
	}
}

// registerMIBServices installs the management host functions:
//
//	mibGet(oid)         local MIB read; nil when the instance is absent
//	mibNext(oid)        [nextOid, value] or nil at end of MIB
//	mibWalk(prefix)     array of [oid, value] pairs under prefix
//	mibSet(oid, v)      local write; true on success, false on error
//	sysname()           the device's name
//	snmpGet(peer, oid)  proxied SNMP read of a registered subordinate
//	snmpNext(peer, oid) proxied GetNext; [nextOid, value] or nil
func (s *Server) registerMIBServices(b *dpl.Bindings) {
	tree := s.dev.Tree()
	var walker Walker
	b.Register("mibGet", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		o, err := argOID(args[0])
		if err != nil {
			return dpl.Value{}, err
		}
		v, err := tree.Get(o)
		if err != nil {
			return dpl.Value{}, nil // absent instance reads as nil
		}
		return ToDPL(v), nil
	})
	b.Register("mibNext", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		o, err := argOID(args[0])
		if err != nil {
			return dpl.Value{}, err
		}
		next, v, err := tree.GetNext(o)
		if err != nil {
			return dpl.Value{}, nil
		}
		return dpl.ArrayOf(dpl.Str(next.String()), ToDPL(v)), nil
	})
	b.Register("mibWalk", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		prefix, err := argOID(args[0])
		if err != nil {
			return dpl.Value{}, err
		}
		return walker.Walk(tree, prefix), nil
	})
	b.Register("mibSet", 2, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		o, err := argOID(args[0])
		if err != nil {
			return dpl.Value{}, err
		}
		v, err := FromDPL(args[1])
		if err != nil {
			return dpl.Value{}, err
		}
		return dpl.Bool(tree.Set(o, v) == nil), nil
	})
	b.Register("sysname", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		return dpl.Str(s.dev.Name()), nil
	})
	b.Register("snmpGet", 2, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		peer, o, err := peerArgs(args)
		if err != nil {
			return dpl.Value{}, err
		}
		c, ok := s.peer(peer)
		if !ok {
			return dpl.Value{}, fmt.Errorf("mbd: no peer %q", peer)
		}
		vbs, err := c.Get(env.VM.Context(), o)
		if err != nil {
			return dpl.Value{}, nil // unreachable/absent reads as nil
		}
		return ToDPL(vbs[0].Value), nil
	})
	b.Register("snmpNext", 2, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		peer, o, err := peerArgs(args)
		if err != nil {
			return dpl.Value{}, err
		}
		c, ok := s.peer(peer)
		if !ok {
			return dpl.Value{}, fmt.Errorf("mbd: no peer %q", peer)
		}
		vbs, err := c.GetNext(env.VM.Context(), o)
		if err != nil {
			return dpl.Value{}, nil
		}
		return dpl.ArrayOf(dpl.Str(vbs[0].Name.String()), ToDPL(vbs[0].Value)), nil
	})
}

// A Walker builds mibWalk's result, an array of at most MaxWalk [oid,
// value] rows, in one pass: every OID is rendered into one buffer that
// the row strings share, and the rows share one cell slice (dpl.Rows).
// The buffer and the slice are sized from the previous walk of the same
// prefix, so an agent that reads one table again and again allocates each
// once, and a small walk never takes the capacity of a large walk of
// another prefix. It remembers the last sizes of at most maxWalkHints
// prefixes. A Walker is safe for concurrent use; the zero value is ready.
type Walker struct {
	mu    sync.Mutex
	sizes map[string]walkSize // by dotted prefix
}

type walkSize struct{ cells, bytes int }

const maxWalkHints = 64

// Walk returns the rows of the instances under prefix in tree.
func (w *Walker) Walk(tree *mib.Tree, prefix oid.OID) dpl.Value {
	var kb [64]byte
	key := prefix.AppendTo(kb[:0])
	w.mu.Lock()
	hint := w.sizes[string(key)]
	w.mu.Unlock()
	buf := make([]byte, 0, hint.bytes)
	cells := make([]dpl.Value, 0, hint.cells)
	tree.Walk(prefix, func(o oid.OID, v mib.Value) bool {
		// Later OIDs are appended past this one, or into a new array
		// when buf grows, so its bytes are never written again.
		start := len(buf)
		buf = o.AppendTo(buf)
		cells = append(cells, dpl.StrBytes(buf[start:]), ToDPL(v))
		return len(cells) < 2*MaxWalk
	})
	if got := (walkSize{len(cells), len(buf)}); got != hint {
		w.mu.Lock()
		if _, ok := w.sizes[string(key)]; !ok && len(w.sizes) >= maxWalkHints {
			clear(w.sizes)
		}
		if w.sizes == nil {
			w.sizes = make(map[string]walkSize)
		}
		w.sizes[string(key)] = got
		w.mu.Unlock()
	}
	return dpl.Rows(cells, len(cells)/2)
}

func argOID(v dpl.Value) (oid.OID, error) {
	s, ok := v.AsString()
	if !ok {
		return nil, fmt.Errorf("mbd: OID argument must be a string, got %s", dpl.TypeName(v))
	}
	o, err := oid.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("mbd: %w", err)
	}
	return o, nil
}

func peerArgs(args []dpl.Value) (string, oid.OID, error) {
	peer, ok := args[0].AsString()
	if !ok {
		return "", nil, fmt.Errorf("mbd: peer name must be a string")
	}
	o, err := argOID(args[1])
	if err != nil {
		return "", nil, err
	}
	return peer, o, nil
}
