package snmp

import (
	"fmt"
	"reflect"
	"testing"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

// sameMessage reports how a and b differ, or "" when they are equal
// field by field.
func sameMessage(a, b *Message) string {
	if a.Community != b.Community || a.Type != b.Type || a.RequestID != b.RequestID ||
		a.ErrorStatus != b.ErrorStatus || a.ErrorIndex != b.ErrorIndex {
		return fmt.Sprintf("header %q %v %d %v %d vs %q %v %d %v %d",
			a.Community, a.Type, a.RequestID, a.ErrorStatus, a.ErrorIndex,
			b.Community, b.Type, b.RequestID, b.ErrorStatus, b.ErrorIndex)
	}
	if (a.Trap == nil) != (b.Trap == nil) {
		return "one message has trap info, the other none"
	}
	if a.Trap != nil {
		at, bt := *a.Trap, *b.Trap
		if !at.Enterprise.Equal(bt.Enterprise) || at.AgentAddr != bt.AgentAddr || at.GenericTrap != bt.GenericTrap ||
			at.SpecificTrap != bt.SpecificTrap || at.Timestamp != bt.Timestamp {
			return fmt.Sprintf("trap %+v vs %+v", at, bt)
		}
	}
	if len(a.VarBinds) != len(b.VarBinds) {
		return fmt.Sprintf("%d varbinds vs %d", len(a.VarBinds), len(b.VarBinds))
	}
	for i, vb := range a.VarBinds {
		if !vb.Name.Equal(b.VarBinds[i].Name) || vb.Value.String() != b.VarBinds[i].Value.String() {
			return fmt.Sprintf("varbind %d: %v = %v vs %v = %v", i, vb.Name, vb.Value, b.VarBinds[i].Name, b.VarBinds[i].Value)
		}
	}
	return ""
}

// FuzzSNMPDecode holds the decoder behind the agent's UDP port to two
// properties. A Decoder reused across packets, decoding a and then b,
// yields for b what a fresh Decode(b) yields: nothing left in its arena,
// varbind array or cached community by a leaks into b's message. And
// every message it accepts re-encodes to bytes that decode to a
// deep-equal message.
func FuzzSNMPDecode(f *testing.F) {
	seeds := []*Message{
		{Community: "public", Type: PDUGetRequest, RequestID: 1234, VarBinds: []VarBind{
			{Name: oid.MustParse("1.3.6.1.2.1.1.1.0"), Value: mib.Null()},
			{Name: oid.MustParse("1.3.6.1.2.1.1.3.0"), Value: mib.Null()},
		}},
		{Community: "c", Type: PDUGetResponse, RequestID: 7, VarBinds: []VarBind{
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.0"), Value: mib.Int(-42)},
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.1"), Value: mib.Str("hello")},
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.2"), Value: mib.Counter32(4_000_000_000)},
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.3"), Value: mib.Gauge32(10_000_000)},
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.4"), Value: mib.TimeTicks(123456)},
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.5"), Value: mib.Counter64(1 << 40)},
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.6"), Value: mib.IP(192, 168, 0, 1)},
			{Name: oid.MustParse("1.3.6.1.2.1.99.1.1.7"), Value: mib.OIDValue(oid.MustParse("1.3.6.1.4.1.45"))},
		}},
		{Community: "public", Type: PDUTrap, Trap: &TrapInfo{
			Enterprise: oid.MustParse("1.3.6.1.4.1.45"), AgentAddr: [4]byte{10, 0, 0, 5},
			GenericTrap: TrapEnterpriseSpecific, SpecificTrap: 3, Timestamp: 555,
		}, VarBinds: []VarBind{{Name: oid.MustParse("1.3.6.1.4.1.45.1.3.2.1.0"), Value: mib.Counter32(99)}}},
		{Community: "secret", Type: PDUSetRequest, RequestID: 9, VarBinds: []VarBind{
			{Name: mib.OIDSysName.Append(0), Value: mib.Str("router")},
		}},
	}
	var pkts [][]byte
	for _, m := range seeds {
		pkt, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		pkts = append(pkts, pkt)
	}
	pkts = append(pkts, nil, []byte{0x30, 0x03, 0x02, 0x01, 0x01}, pkts[0][:len(pkts[0])/2])
	for _, a := range pkts {
		for _, b := range pkts {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var d Decoder
		var reused Message
		_ = d.Decode(a, &reused)
		errReused := d.Decode(b, &reused)
		fresh, err := Decode(b)
		if (err == nil) != (errReused == nil) {
			t.Fatalf("fresh Decode: %v; reused Decoder: %v", err, errReused)
		}
		if err != nil {
			return
		}
		if diff := sameMessage(&reused, fresh); diff != "" {
			t.Fatalf("reused Decoder after % x differs from a fresh Decode: %s", a, diff)
		}
		pkt, err := fresh.Encode()
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		again, err := Decode(pkt)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n% x", err, pkt)
		}
		if !reflect.DeepEqual(again, fresh) {
			t.Fatalf("re-encoded message decodes differently:\n got %+v\nwant %+v", again, fresh)
		}
	})
}
