package snmp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/mib"
	"mbd/internal/obs"
	"mbd/internal/oid"
)

// Agent serves SNMPv1 requests against a mib.Tree. It is transport
// independent: HandlePacket implements the request/response exchange on
// raw bytes, and ServeUDP binds it to a socket. The netsim package
// feeds it encoded packets directly with virtual-time accounting.
//
// The packet path is allocation-free in steady state: decode scratch
// (message structs, OID arenas, successor buffers) is pooled, counters
// are atomics, and responses are encoded into a caller-supplied buffer
// via HandlePacketAppend.
type Agent struct {
	tree      *mib.Tree
	community string

	pool  sync.Pool // *serveState
	stats agentCounters

	// lat, when set by Instrument, observes per-packet serve latency.
	// The uninstrumented path pays one atomic load and a branch —
	// nothing else, keeping the gated serve benchmarks untouched.
	lat atomic.Pointer[obs.Histogram]
}

// agentCounters is the lock-free backing store for AgentStats.
type agentCounters struct {
	inPkts       atomic.Uint64
	outPkts      atomic.Uint64
	badCommunity atomic.Uint64
	badVersion   atomic.Uint64
	getRequests  atomic.Uint64
	getNexts     atomic.Uint64
	setRequests  atomic.Uint64
	errors       atomic.Uint64
	panics       atomic.Uint64
}

// AgentStats counts protocol activity, mirroring the snmp MIB group's
// spirit (inPkts, outPkts, badCommunity, errors).
type AgentStats struct {
	InPkts       uint64
	OutPkts      uint64
	BadCommunity uint64
	BadVersion   uint64
	GetRequests  uint64
	GetNexts     uint64
	SetRequests  uint64
	Errors       uint64
	// Panics counts packets dropped because serving them panicked (a
	// buggy mounted handler); each is recovered, never fatal.
	Panics uint64
}

// serveState is the pooled per-packet scratch: request/response
// messages with their varbind storage, the wire decoder, and one
// successor buffer per GetNext varbind position.
type serveState struct {
	dec      Decoder
	req      Message
	resp     Message
	nextBufs []oid.OID
}

// NewAgent returns an agent serving tree; requests must carry the given
// community string.
func NewAgent(tree *mib.Tree, community string) *Agent {
	a := &Agent{tree: tree, community: community}
	a.pool.New = func() any { return &serveState{} }
	return a
}

// Stats returns a snapshot of the agent's counters.
func (a *Agent) Stats() AgentStats {
	return AgentStats{
		InPkts:       a.stats.inPkts.Load(),
		OutPkts:      a.stats.outPkts.Load(),
		BadCommunity: a.stats.badCommunity.Load(),
		BadVersion:   a.stats.badVersion.Load(),
		GetRequests:  a.stats.getRequests.Load(),
		GetNexts:     a.stats.getNexts.Load(),
		SetRequests:  a.stats.setRequests.Load(),
		Errors:       a.stats.errors.Load(),
		Panics:       a.stats.panics.Load(),
	}
}

// HandlePacket processes one encoded request and returns the encoded
// response, or nil when the request must be dropped (undecodable or
// failed authentication — RFC 1157 drops silently).
func (a *Agent) HandlePacket(pkt []byte) []byte {
	return a.HandlePacketAppend(nil, pkt)
}

// HandlePacketAppend is HandlePacket with a caller-supplied response
// buffer: the encoded response is appended to dst (typically a reused
// buf[:0]) and returned, so the serve path performs no steady-state
// allocation. A nil return still means "drop".
func (a *Agent) HandlePacketAppend(dst, pkt []byte) []byte {
	if h := a.lat.Load(); h != nil {
		start := time.Now()
		out := a.handlePacketAppend(dst, pkt)
		h.Observe(time.Since(start))
		return out
	}
	return a.handlePacketAppend(dst, pkt)
}

func (a *Agent) handlePacketAppend(dst, pkt []byte) (out []byte) {
	a.stats.inPkts.Add(1)
	sc := a.pool.Get().(*serveState)
	defer a.pool.Put(sc)
	// A panic while serving (a buggy mounted handler, a malformed
	// walk) drops this packet — RFC 1157 drop semantics — instead of
	// killing the UDP serve loop and with it the whole agent.
	defer func() {
		if r := recover(); r != nil {
			a.stats.panics.Add(1)
			out = nil
		}
	}()
	if err := sc.dec.Decode(pkt, &sc.req); err != nil {
		a.stats.badVersion.Add(1)
		return nil
	}
	if !a.serve(&sc.req, &sc.resp, sc) {
		return nil
	}
	out, err := sc.resp.AppendEncode(dst)
	if err != nil {
		a.stats.errors.Add(1)
		return nil
	}
	a.stats.outPkts.Add(1)
	return out
}

// Handle processes a decoded request message and returns the response
// message, or nil for drops. Unlike the packet path, the response is
// freshly allocated and safe to retain.
func (a *Agent) Handle(req *Message) *Message {
	resp := &Message{}
	if !a.serve(req, resp, nil) {
		return nil
	}
	return resp
}

// serve answers req into resp, reusing resp's varbind storage and, when
// sc is non-nil, its pooled successor buffers. It reports whether a
// response should be sent.
func (a *Agent) serve(req, resp *Message, sc *serveState) bool {
	if req.Community != a.community {
		a.stats.badCommunity.Add(1)
		return false
	}
	resp.Community = req.Community
	resp.Type = PDUGetResponse
	resp.RequestID = req.RequestID
	resp.ErrorStatus = NoError
	resp.ErrorIndex = 0
	resp.Trap = nil
	resp.VarBinds = append(resp.VarBinds[:0], req.VarBinds...)

	fail := func(status ErrorStatus, index int) bool {
		a.stats.errors.Add(1)
		resp.ErrorStatus = status
		resp.ErrorIndex = index
		// RFC 1157: on error, the varbind list is returned as received.
		copy(resp.VarBinds, req.VarBinds)
		return true
	}

	switch req.Type {
	case PDUGetRequest:
		a.stats.getRequests.Add(1)
		for i, vb := range req.VarBinds {
			v, err := a.tree.Get(vb.Name)
			if err != nil {
				return fail(NoSuchName, i+1)
			}
			resp.VarBinds[i] = VarBind{Name: vb.Name, Value: v}
		}
	case PDUGetNextRequest:
		a.stats.getNexts.Add(1)
		for i, vb := range req.VarBinds {
			var buf oid.OID
			if sc != nil {
				for len(sc.nextBufs) <= i {
					sc.nextBufs = append(sc.nextBufs, nil)
				}
				buf = sc.nextBufs[i]
			}
			next, v, err := a.tree.GetNextInto(buf, vb.Name)
			if err != nil {
				return fail(NoSuchName, i+1)
			}
			if sc != nil {
				sc.nextBufs[i] = next
			}
			resp.VarBinds[i] = VarBind{Name: next, Value: v}
		}
	case PDUSetRequest:
		a.stats.setRequests.Add(1)
		for i, vb := range req.VarBinds {
			if err := a.tree.Set(vb.Name, vb.Value); err != nil {
				switch {
				case errors.Is(err, mib.ErrReadOnly):
					return fail(ReadOnly, i+1)
				case errors.Is(err, mib.ErrBadValue):
					return fail(BadValue, i+1)
				default:
					return fail(NoSuchName, i+1)
				}
			}
		}
	default:
		return false // agents do not answer responses or traps
	}
	return true
}

// Instrument publishes the agent's protocol counters on reg as
// snmp_*-prefixed series and starts observing per-packet serve latency
// into snmp_serve_duration_seconds. Call at most once, before serving.
func (a *Agent) Instrument(reg *obs.Registry) {
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"snmp_in_pkts_total", "SNMP packets received", &a.stats.inPkts},
		{"snmp_out_pkts_total", "SNMP responses sent", &a.stats.outPkts},
		{"snmp_bad_community_total", "requests with a wrong community", &a.stats.badCommunity},
		{"snmp_bad_version_total", "undecodable or wrong-version packets", &a.stats.badVersion},
		{"snmp_get_requests_total", "GetRequest PDUs served", &a.stats.getRequests},
		{"snmp_get_nexts_total", "GetNextRequest PDUs served", &a.stats.getNexts},
		{"snmp_set_requests_total", "SetRequest PDUs served", &a.stats.setRequests},
		{"snmp_errors_total", "PDUs answered with an error status", &a.stats.errors},
		{"snmp_handler_panics_total", "packets dropped by per-packet panic recovery", &a.stats.panics},
	} {
		reg.FuncCounter(c.name, c.help, c.v.Load)
	}
	a.lat.Store(reg.Histogram("snmp_serve_duration_seconds", "per-packet serve latency", nil))
}

// ServeUDP answers requests on conn until ctx is cancelled. It blocks;
// run it on its own goroutine. The conn is closed on return. conn must
// be a *net.UDPConn (what net.ListenPacket("udp", ...) returns): only
// its AddrPort calls move a datagram without allocating an address for
// it, and an agent that makes garbage per request grows with its load.
func (a *Agent) ServeUDP(ctx context.Context, conn net.PacketConn) error {
	defer conn.Close()
	uc, ok := conn.(*net.UDPConn)
	if !ok {
		return fmt.Errorf("snmp: agent serves a *net.UDPConn, not %T", conn)
	}
	go func() {
		<-ctx.Done()
		conn.Close() // unblocks the read
	}()
	buf := make([]byte, 65536)
	var out []byte // reused response buffer
	for {
		n, addr, err := uc.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("snmp: agent read: %w", err)
		}
		if resp := a.HandlePacketAppend(out[:0], buf[:n]); resp != nil {
			out = resp // keep the (possibly grown) buffer for reuse
			if _, err := uc.WriteToUDPAddrPort(resp, addr); err != nil && ctx.Err() == nil {
				return fmt.Errorf("snmp: agent write: %w", err)
			}
		}
	}
}
