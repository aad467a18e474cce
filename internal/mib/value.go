// Package mib implements a management information base: typed SMI
// values, a mountable OID tree with SNMP Get/GetNext/Set semantics,
// generic table support, and a simulated managed device exposing the
// MIB-II subset plus a Synoptics-style private MIB that the paper's
// InterOp'91 health-monitoring demo reads.
//
// The same Tree is visible on two access paths, mirroring the paper's
// architecture: delegated agents inside an MbD server read it through
// direct host-function calls (cheap, local), while a centralized
// manager reads it through the SNMP agent (wire-encoded, remote).
package mib

import (
	"fmt"

	"mbd/internal/oid"
)

// Kind identifies the SMI type of a Value.
type Kind uint8

// SMI value kinds. KindNull is the zero value, so an uninitialized
// Value is a well-formed SNMP NULL.
const (
	KindNull Kind = iota
	KindInteger
	KindOctetString
	KindOID
	KindIPAddress
	KindCounter32
	KindGauge32
	KindTimeTicks
	KindCounter64
)

var kindNames = map[Kind]string{
	KindNull:        "Null",
	KindInteger:     "Integer",
	KindOctetString: "OctetString",
	KindOID:         "ObjectIdentifier",
	KindIPAddress:   "IpAddress",
	KindCounter32:   "Counter32",
	KindGauge32:     "Gauge32",
	KindTimeTicks:   "TimeTicks",
	KindCounter64:   "Counter64",
}

// String returns the SMI name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a tagged union holding one SMI value. Exactly the field
// selected by Kind is meaningful.
type Value struct {
	Kind  Kind
	Int   int64   // KindInteger
	Uint  uint64  // KindCounter32, KindGauge32, KindTimeTicks, KindCounter64
	Bytes []byte  // KindOctetString, KindIPAddress (4 bytes)
	OID   oid.OID // KindOID
}

// Null returns the SNMP NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{Kind: KindInteger, Int: v} }

// Str returns an OCTET STRING value holding s.
func Str(s string) Value { return Value{Kind: KindOctetString, Bytes: []byte(s)} }

// Octets returns an OCTET STRING value holding b (not copied).
func Octets(b []byte) Value { return Value{Kind: KindOctetString, Bytes: b} }

// Counter32 returns a Counter32 value (wraps modulo 2^32 by masking).
func Counter32(v uint64) Value { return Value{Kind: KindCounter32, Uint: v & 0xFFFFFFFF} }

// Gauge32 returns a Gauge32 value.
func Gauge32(v uint64) Value { return Value{Kind: KindGauge32, Uint: v & 0xFFFFFFFF} }

// TimeTicks returns a TimeTicks value (hundredths of a second).
func TimeTicks(v uint64) Value { return Value{Kind: KindTimeTicks, Uint: v & 0xFFFFFFFF} }

// Counter64 returns a Counter64 value.
func Counter64(v uint64) Value { return Value{Kind: KindCounter64, Uint: v} }

// IP returns an IpAddress value.
func IP(a, b, c, d byte) Value {
	return Value{Kind: KindIPAddress, Bytes: []byte{a, b, c, d}}
}

// OIDValue returns an OBJECT IDENTIFIER value.
func OIDValue(o oid.OID) Value { return Value{Kind: KindOID, OID: o} }

// String renders the value for human consumption.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInteger:
		return fmt.Sprintf("%d", v.Int)
	case KindOctetString:
		return fmt.Sprintf("%q", v.Bytes)
	case KindOID:
		return v.OID.String()
	case KindIPAddress:
		if len(v.Bytes) == 4 {
			return fmt.Sprintf("%d.%d.%d.%d", v.Bytes[0], v.Bytes[1], v.Bytes[2], v.Bytes[3])
		}
		return fmt.Sprintf("IpAddress(% x)", v.Bytes)
	case KindCounter32, KindGauge32, KindTimeTicks, KindCounter64:
		return fmt.Sprintf("%d(%s)", v.Uint, v.Kind)
	default:
		return fmt.Sprintf("Value(kind=%d)", v.Kind)
	}
}
