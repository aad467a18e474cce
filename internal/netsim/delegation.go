package netsim

import (
	"fmt"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/mbd"
	"mbd/internal/oid"
	"mbd/internal/rds"
)

// Session models the manager-side RDS relationship with one MbD server
// in the simulation: delegation and instantiation cross the link as
// real-sized RDS frames, after which the delegated agent evaluates
// locally and only its reports travel.
type Session struct {
	sim *Sim
	st  *Station
	// Tr accounts management traffic attributable to this session.
	Tr *Traffic
	// busyUntil models FIFO serialization on the server→manager
	// direction: a report cannot start transmitting before the
	// previous frame finished.
	busyUntil time.Duration
	// last is the last report framed on the session's connection: the
	// next report frame is coded against it, so a steady report leaves
	// out the DPI and kind it repeats.
	last rds.Event
}

// NewSession opens a simulated RDS session to the station.
func NewSession(sim *Sim, st *Station, tr *Traffic) *Session {
	return &Session{sim: sim, st: st, Tr: tr}
}

func frameBytes(m *rds.Message) int { return rds.FrameSize(m.Encode()) }

// roundTrip accounts one request/response pair over the station's link
// and invokes done when the reply reaches the manager.
func (s *Session) roundTrip(req, resp *rds.Message, done func()) {
	reqN := frameBytes(req)
	respN := frameBytes(resp)
	s.Tr.Requests++
	s.Tr.ReqBytes += uint64(reqN)
	s.sim.After(s.st.Link.Delay(reqN)+s.st.Proc, func() {
		s.Tr.Responses++
		s.Tr.RespBytes += uint64(respN)
		s.sim.After(s.st.Link.Delay(respN), done)
	})
}

// Delegate transfers dp source to the server (one round trip sized by
// the real RDS encoding) and invokes done at completion.
func (s *Session) Delegate(name, source string, done func()) {
	req := &rds.Message{Op: rds.OpDelegate, Seq: 1, Principal: "manager", Name: name, Lang: "dpl", Payload: []byte(source)}
	resp := &rds.Message{Op: rds.OpReply, Seq: 1, OK: true}
	s.roundTrip(req, resp, done)
}

// Instantiate starts an instance (one round trip) and invokes done.
func (s *Session) Instantiate(dp, entry string, done func()) {
	req := &rds.Message{Op: rds.OpInstantiate, Seq: 2, Principal: "manager", Name: dp, Entry: entry}
	resp := &rds.Message{Op: rds.OpReply, Seq: 2, OK: true, Name: dp + "#1"}
	s.roundTrip(req, resp, done)
}

// Report delivers a one-way DPI event frame to the manager, invoking
// deliver with the payload at its virtual arrival time. Frames queue
// FIFO on the link: back-to-back reports serialize one after another.
// Each is sized as the frame that follows the session's previous
// report on its connection (rds.Message.AppendFrameAfter).
func (s *Session) Report(dpi, payload string, deliver func(payload string)) {
	msg := &rds.Message{Op: rds.OpEvent, Name: dpi, Entry: "report", Payload: []byte(payload), TimeMS: s.sim.Now().Milliseconds()}
	frame, _ := msg.AppendFrameAfter(nil, s.last) // a report is far below MaxFrame
	s.last = rds.Event{DPI: dpi, Kind: "report", TimeMS: msg.TimeMS}
	n := len(frame)
	s.Tr.Responses++
	s.Tr.RespBytes += uint64(n)
	tx := s.st.Link.Delay(n) - s.st.Link.OneWay // serialization portion
	start := s.sim.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + tx
	s.sim.At(start+tx+s.st.Link.OneWay, func() { deliver(payload) })
}

// Agent is a delegated program executing *inside* the simulation: the
// real DPL toolchain (Translator, bytecode VM) runs against the
// station's real MIB, but sleep/report interact with virtual time and
// the simulated link. Each Invoke is one synchronous local evaluation
// at the current virtual time — the paper's "computations happen at the
// LAN" path, which costs no management-network traffic.
type Agent struct {
	sim      *Sim
	st       *Station
	session  *Session
	vm       *dpl.VM
	bindings *dpl.Bindings
	walker   mbd.Walker
	// OnReport receives report payloads at their manager-side arrival
	// time. Nil drops them (still accounted as traffic).
	OnReport func(payload string)
}

// NewAgent translates source against the station's management bindings
// and prepares a VM. The allowed set mirrors the MbD server's: Std plus
// mibGet / mibNext / mibWalk / now / report / sysname.
func NewAgent(sim *Sim, st *Station, session *Session, source string) (*Agent, error) {
	a := &Agent{sim: sim, st: st, session: session}
	b := dpl.Std()
	tree := st.Dev.Tree()
	b.Register("mibGet", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		o, err := agentOID(args[0])
		if err != nil {
			return dpl.Value{}, err
		}
		a.st.Sync(a.sim)
		v, err := tree.Get(o)
		if err != nil {
			return dpl.Value{}, nil
		}
		return mbd.ToDPL(v), nil
	})
	b.Register("mibNext", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		o, err := agentOID(args[0])
		if err != nil {
			return dpl.Value{}, err
		}
		a.st.Sync(a.sim)
		next, v, err := tree.GetNext(o)
		if err != nil {
			return dpl.Value{}, nil
		}
		return dpl.ArrayOf(dpl.Str(next.String()), mbd.ToDPL(v)), nil
	})
	b.Register("mibWalk", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		prefix, err := agentOID(args[0])
		if err != nil {
			return dpl.Value{}, err
		}
		a.st.Sync(a.sim)
		return a.walker.Walk(tree, prefix), nil
	})
	b.Register("now", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		return dpl.Int(a.sim.Now().Milliseconds()), nil
	})
	b.Register("report", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		payload := dpl.FormatValue(args[0])
		a.session.Report("agent#1", payload, func(p string) {
			if a.OnReport != nil {
				a.OnReport(p)
			}
		})
		return dpl.Value{}, nil
	})
	b.Register("sysname", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		return dpl.Str(a.st.Dev.Name()), nil
	})
	prog, err := dpl.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("netsim: agent source: %w", err)
	}
	obj, err := dpl.Compile(prog, b)
	if err != nil {
		return nil, err
	}
	a.bindings = b
	a.vm = dpl.NewVM(obj, b, dpl.WithMaxSteps(100_000_000))
	return a, nil
}

// Invoke runs entry(args...) synchronously at the current virtual time.
func (a *Agent) Invoke(entry string, args ...any) (any, error) {
	return a.vm.Run(nopContext{}, entry, args...)
}

// Steps exposes the VM's executed instruction count (local CPU proxy).
func (a *Agent) Steps() uint64 { return a.vm.Steps() }

func agentOID(v dpl.Value) (oid.OID, error) {
	s, ok := v.AsString()
	if !ok {
		return nil, fmt.Errorf("netsim: OID argument must be a string")
	}
	return oid.Parse(s)
}

// nopContext is a never-cancelled context without timers, cheap enough
// for millions of short VM runs.
type nopContext struct{}

func (nopContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (nopContext) Done() <-chan struct{}       { return nil }
func (nopContext) Err() error                  { return nil }
func (nopContext) Value(any) any               { return nil }
