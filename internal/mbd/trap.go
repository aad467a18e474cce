package mbd

import (
	"fmt"
	"io"
	"sync"

	"mbd/internal/dpl"
	"mbd/internal/mib"
	"mbd/internal/snmp"
)

// trapState holds the server's trap destination.
type trapState struct {
	mu   sync.Mutex
	sink io.Writer
}

// SetTrapSink installs (or replaces) the destination for SNMP traps
// emitted by delegated programs via the trap host function: each trap
// is one Write of one encoded SNMPv1 packet, so a UDP socket dialed to
// a trap daemon (mbdserver -trapsink) sends each as one datagram. With
// no sink installed, trap() fails — configuration error, not silence.
func (s *Server) SetTrapSink(sink io.Writer) {
	s.traps.mu.Lock()
	defer s.traps.mu.Unlock()
	s.traps.sink = sink
}

// EmitTrap builds and sends a real SNMPv1 enterprise-specific trap:
// enterprise = the private Ethernet subtree, agent-addr = the device's
// address, timestamp = current sysUpTime, one varbind carrying the
// payload string under enterprise.0.
func (s *Server) EmitTrap(specific int, payload string) error {
	s.traps.mu.Lock()
	sink := s.traps.sink
	s.traps.mu.Unlock()
	if sink == nil {
		return fmt.Errorf("mbd: no trap sink configured")
	}
	up, err := s.dev.Tree().Get(mib.OIDSysUpTime.Append(0))
	if err != nil {
		return fmt.Errorf("mbd: reading sysUpTime for trap: %w", err)
	}
	msg := &snmp.Message{
		Community: "public",
		Type:      snmp.PDUTrap,
		Trap: &snmp.TrapInfo{
			Enterprise:   mib.OIDPrivateEnet,
			AgentAddr:    s.dev.Addr(),
			GenericTrap:  snmp.TrapEnterpriseSpecific,
			SpecificTrap: specific,
			Timestamp:    up.Uint,
		},
		VarBinds: []snmp.VarBind{
			{Name: mib.OIDPrivateEnet.Append(0), Value: mib.Str(payload)},
		},
	}
	pkt, err := msg.Encode()
	if err != nil {
		return fmt.Errorf("mbd: encoding trap: %w", err)
	}
	if _, err := sink.Write(pkt); err != nil {
		return fmt.Errorf("mbd: sending trap: %w", err)
	}
	return nil
}

// registerTrapService installs the trap(specific, payload) host
// function: delegated programs escalate conditions to SNMP managers
// that only understand traps — the other half of the elastic process's
// "ocp supports an snmp mib" integration.
func (s *Server) registerTrapService(b *dpl.Bindings) {
	b.Register("trap", 2, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		specific, ok := args[0].AsInt()
		if !ok {
			return dpl.Value{}, fmt.Errorf("mbd: trap(specific, payload) wants an int code")
		}
		return dpl.Value{}, s.EmitTrap(int(specific), dpl.FormatValue(args[1]))
	})
}
