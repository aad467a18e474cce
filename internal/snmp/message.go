// Package snmp implements the SNMPv1 protocol (RFC 1157): message
// encoding over ASN.1 BER, an agent engine serving a mib.Tree, and a
// manager client with Get/GetNext/Set/Walk operations, retries and
// timeouts. Traps are supported for agent-initiated notifications.
//
// This is the "micro-management" interface the paper's centralized
// baseline uses; the MbD server mounts the same MIB and lets delegated
// agents bypass the wire entirely.
package snmp

import (
	"errors"
	"fmt"
	"math"

	"mbd/internal/ber"
	"mbd/internal/mib"
	"mbd/internal/oid"
)

// Version0 is the SNMPv1 version number carried on the wire.
const Version0 = 0

// PDUType is the context-specific constructed tag of an SNMP PDU.
type PDUType byte

// SNMPv1 PDU types.
const (
	PDUGetRequest     PDUType = 0xA0
	PDUGetNextRequest PDUType = 0xA1
	PDUGetResponse    PDUType = 0xA2
	PDUSetRequest     PDUType = 0xA3
	PDUTrap           PDUType = 0xA4
)

// String names the PDU type.
func (t PDUType) String() string {
	switch t {
	case PDUGetRequest:
		return "GetRequest"
	case PDUGetNextRequest:
		return "GetNextRequest"
	case PDUGetResponse:
		return "GetResponse"
	case PDUSetRequest:
		return "SetRequest"
	case PDUTrap:
		return "Trap"
	default:
		return fmt.Sprintf("PDUType(0x%02x)", byte(t))
	}
}

// ErrorStatus is the SNMPv1 PDU error-status field.
type ErrorStatus int

// SNMPv1 error-status values.
const (
	NoError    ErrorStatus = 0
	TooBig     ErrorStatus = 1
	NoSuchName ErrorStatus = 2
	BadValue   ErrorStatus = 3
	ReadOnly   ErrorStatus = 4
	GenErr     ErrorStatus = 5
)

// String names the error status.
func (e ErrorStatus) String() string {
	switch e {
	case NoError:
		return "noError"
	case TooBig:
		return "tooBig"
	case NoSuchName:
		return "noSuchName"
	case BadValue:
		return "badValue"
	case ReadOnly:
		return "readOnly"
	case GenErr:
		return "genErr"
	default:
		return fmt.Sprintf("errorStatus(%d)", int(e))
	}
}

// VarBind is one name/value pair in a PDU.
type VarBind struct {
	Name  oid.OID
	Value mib.Value
}

// Message is a complete SNMPv1 message. For Trap PDUs the Trap field is
// populated instead of RequestID/ErrorStatus/ErrorIndex.
type Message struct {
	Community   string
	Type        PDUType
	RequestID   int32
	ErrorStatus ErrorStatus
	ErrorIndex  int
	VarBinds    []VarBind
	Trap        *TrapInfo
}

// TrapInfo carries the SNMPv1 trap header fields.
type TrapInfo struct {
	Enterprise   oid.OID
	AgentAddr    [4]byte
	GenericTrap  int
	SpecificTrap int
	Timestamp    uint64 // TimeTicks
}

// Generic trap numbers (RFC 1157).
const (
	TrapColdStart          = 0
	TrapLinkDown           = 2
	TrapLinkUp             = 3
	TrapEnterpriseSpecific = 6
)

// valueTags is each mib value kind's wire tag; a kind without one
// encodes as NULL.
var valueTags = [...]byte{
	mib.KindNull:        ber.TagNull,
	mib.KindInteger:     ber.TagInteger,
	mib.KindOctetString: ber.TagOctetString,
	mib.KindOID:         ber.TagOID,
	mib.KindIPAddress:   ber.TagIPAddress,
	mib.KindCounter32:   ber.TagCounter32,
	mib.KindGauge32:     ber.TagGauge32,
	mib.KindTimeTicks:   ber.TagTimeTicks,
	mib.KindCounter64:   ber.TagCounter64,
}

// valueKinds inverts valueTags.
var valueKinds = func() (kinds [256]mib.Kind) {
	for kind, tag := range valueTags {
		kinds[tag] = mib.Kind(kind)
	}
	return kinds
}()

// visitValue visits one varbind value, whose tag selects its kind.
// Decoded 32-bit kinds wrap as their mib constructors do.
func visitValue(c *ber.Codec, v *mib.Value) {
	tag := ber.TagNull
	if c.Decoding() {
		tag = c.Peek()
	} else if int(v.Kind) < len(valueTags) {
		tag = valueTags[v.Kind]
	}
	switch tag {
	case ber.TagNull:
		c.Null()
	case ber.TagInteger:
		ber.Int(c, &v.Int)
	case ber.TagOctetString:
		c.Octets(tag, &v.Bytes)
	case ber.TagOID:
		c.OID(&v.OID, nil)
	case ber.TagIPAddress:
		c.Octets(tag, &v.Bytes)
		if c.Decoding() && len(v.Bytes) != 4 {
			c.Fail(fmt.Errorf("snmp: IpAddress of %d bytes", len(v.Bytes)))
		}
	case ber.TagCounter32, ber.TagGauge32, ber.TagTimeTicks, ber.TagCounter64:
		c.Uint(tag, &v.Uint)
		if c.Decoding() && tag != ber.TagCounter64 {
			v.Uint &= 0xFFFFFFFF
		}
	default:
		c.Fail(fmt.Errorf("snmp: unsupported value tag 0x%02x", tag))
	}
	if c.Decoding() {
		v.Kind = valueKinds[tag]
	}
}

// Encode serializes the message to its BER wire form.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(nil)
}

// AppendEncode serializes the message to its BER wire form appended to
// dst, returning the extended slice. dst may be nil; callers on the
// packet hot path pass a reused buffer (typically buf[:0]) to encode
// without allocating. The result aliases dst's storage when capacity
// suffices — ownership of the returned slice is the caller's, and the
// message itself is not retained.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	if m.Type == PDUTrap && m.Trap == nil {
		return nil, errors.New("snmp: trap message without TrapInfo")
	}
	c := ber.Encoder(dst)
	m.visit(&c, nil)
	return c.Bytes(), c.Err()
}

// Decode parses a BER wire message. Every decoded field is freshly
// allocated; hot paths that process many packets use a Decoder instead.
func Decode(b []byte) (*Message, error) {
	var d Decoder
	m := &Message{}
	if err := d.Decode(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Decoder parses BER wire messages while reusing its internal buffers:
// decoded OIDs live in one arc arena, the varbind list reuses its
// backing array, and the community string is cached between packets.
// After the first few packets a steady-state Decode performs no
// allocations (octet-string values still copy).
//
// The message populated by Decode aliases the decoder's buffers and is
// valid only until the next Decode call. A Decoder must not be used
// concurrently. The zero value is ready for use.
type Decoder struct {
	arena     oid.OID // backing store for all decoded OIDs
	community string  // cached community, reused while unchanged
	vbs       []VarBind
}

// Decode parses b into m, overwriting every field. See the Decoder
// contract for the lifetime of the decoded contents.
func (d *Decoder) Decode(b []byte, m *Message) error {
	d.arena = d.arena[:0]
	*m = Message{Community: d.community, VarBinds: d.vbs[:0]}
	c := ber.Decoder(b)
	m.visit(&c, &d.arena)
	err := c.Finish()
	d.community, d.vbs = m.Community, m.VarBinds[:0]
	if err != nil {
		*m = Message{}
	}
	return err
}

// visit runs m's wire format through c. Decoding, varbind names go to
// arena.
func (m *Message) visit(c *ber.Codec, arena *oid.OID) {
	msg := c.Begin(ber.TagSequence)
	version := int64(Version0)
	ber.Int(c, &version)
	if c.Decoding() && version != Version0 {
		c.Fail(fmt.Errorf("snmp: unsupported version %d", version))
	}
	c.String(ber.TagOctetString, &m.Community)
	if c.Decoding() {
		m.Type = PDUType(c.Peek())
	}
	pdu := c.Begin(byte(m.Type))
	switch m.Type {
	case PDUGetRequest, PDUGetNextRequest, PDUGetResponse, PDUSetRequest:
		ber.Int(c, &m.RequestID)
		ber.Int(c, &m.ErrorStatus)
		ber.Int(c, &m.ErrorIndex)
	case PDUTrap:
		if c.Decoding() {
			m.Trap = &TrapInfo{}
		}
		t := m.Trap
		c.OID(&t.Enterprise, nil)
		c.Fixed(ber.TagIPAddress, t.AgentAddr[:])
		ber.Int(c, &t.GenericTrap)
		ber.Int(c, &t.SpecificTrap)
		c.Uint(ber.TagTimeTicks, &t.Timestamp)
	default:
		c.Fail(fmt.Errorf("snmp: unknown PDU type 0x%02x", byte(m.Type)))
	}
	for i := range ber.List(c, &m.VarBinds, math.MaxInt) {
		vb := &m.VarBinds[i]
		one := c.Begin(ber.TagSequence)
		c.OID(&vb.Name, arena)
		visitValue(c, &vb.Value)
		c.End(one)
	}
	c.End(pdu)
	c.End(msg)
}
