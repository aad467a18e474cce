package snmp

import (
	"math/rand"
	"testing"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

func TestMessageRoundTrip(t *testing.T) {
	msg := &Message{
		Community: "public",
		Type:      PDUGetRequest,
		RequestID: 1234,
		VarBinds: []VarBind{
			{Name: oid.MustParse("1.3.6.1.2.1.1.1.0"), Value: mib.Null()},
			{Name: oid.MustParse("1.3.6.1.2.1.1.3.0"), Value: mib.Null()},
		},
	}
	pkt, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Community != "public" || got.Type != PDUGetRequest || got.RequestID != 1234 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.VarBinds) != 2 || !got.VarBinds[0].Name.Equal(msg.VarBinds[0].Name) {
		t.Fatalf("varbinds mismatch: %+v", got.VarBinds)
	}
}

func TestResponseValuesRoundTrip(t *testing.T) {
	values := []mib.Value{
		mib.Int(-42),
		mib.Str("hello"),
		mib.Counter32(4_000_000_000),
		mib.Gauge32(10_000_000),
		mib.TimeTicks(123456),
		mib.Counter64(1 << 40),
		mib.IP(192, 168, 0, 1),
		mib.OIDValue(oid.MustParse("1.3.6.1.4.1.45")),
		mib.Null(),
	}
	vbs := make([]VarBind, len(values))
	for i, v := range values {
		vbs[i] = VarBind{Name: oid.MustParse("1.3.6.1.2.1.99.1.1").Append(uint32(i)), Value: v}
	}
	msg := &Message{Community: "c", Type: PDUGetResponse, RequestID: 7, VarBinds: vbs}
	pkt, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	for i, vb := range got.VarBinds {
		if vb.Value.String() != values[i].String() {
			t.Errorf("value %d: got %v want %v", i, vb.Value, values[i])
		}
	}
}

func TestTrapRoundTrip(t *testing.T) {
	msg := &Message{
		Community: "public",
		Type:      PDUTrap,
		Trap: &TrapInfo{
			Enterprise:   oid.MustParse("1.3.6.1.4.1.45"),
			AgentAddr:    [4]byte{10, 0, 0, 5},
			GenericTrap:  TrapEnterpriseSpecific,
			SpecificTrap: 3,
			Timestamp:    555,
		},
		VarBinds: []VarBind{{Name: oid.MustParse("1.3.6.1.4.1.45.1.3.2.1.0"), Value: mib.Counter32(99)}},
	}
	pkt, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trap == nil {
		t.Fatal("trap info lost")
	}
	if got.Trap.AgentAddr != msg.Trap.AgentAddr || got.Trap.SpecificTrap != 3 ||
		got.Trap.GenericTrap != TrapEnterpriseSpecific || got.Trap.Timestamp != 555 ||
		!got.Trap.Enterprise.Equal(msg.Trap.Enterprise) {
		t.Fatalf("trap mismatch: %+v", got.Trap)
	}
}

func TestTrapWithoutInfoRejected(t *testing.T) {
	msg := &Message{Community: "c", Type: PDUTrap}
	if _, err := msg.Encode(); err == nil {
		t.Fatal("trap without TrapInfo encoded")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x30},
		{0x02, 0x01, 0x00},             // bare integer
		{0x30, 0x03, 0x02, 0x01, 0x01}, // version 1 (v2c), unsupported
		{0x30, 0x02, 0x04, 0x00},       // missing version
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("garbage % x decoded", c)
		}
	}
}

func TestDecodeTruncations(t *testing.T) {
	msg := &Message{
		Community: "public",
		Type:      PDUGetRequest,
		RequestID: 9,
		VarBinds:  []VarBind{{Name: oid.MustParse("1.3.6.1.2.1.1.1.0"), Value: mib.Null()}},
	}
	pkt, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pkt); i++ {
		if _, err := Decode(pkt[:i]); err == nil {
			t.Fatalf("truncated packet of %d/%d bytes decoded", i, len(pkt))
		}
	}
}

func TestPDUTypeAndErrorStrings(t *testing.T) {
	if PDUGetRequest.String() != "GetRequest" || PDUTrap.String() != "Trap" {
		t.Error("PDUType names wrong")
	}
	if PDUType(0xAF).String() == "" {
		t.Error("unknown PDU type has empty name")
	}
	if NoSuchName.String() != "noSuchName" || TooBig.String() != "tooBig" {
		t.Error("ErrorStatus names wrong")
	}
	if ErrorStatus(77).String() == "" {
		t.Error("unknown status has empty name")
	}
}

// Property: randomized messages survive an encode/decode cycle.
func TestRandomMessagesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	types := []PDUType{PDUGetRequest, PDUGetNextRequest, PDUGetResponse, PDUSetRequest}
	for i := 0; i < 300; i++ {
		msg := &Message{
			Community:   string(randBytes(r, r.Intn(16))),
			Type:        types[r.Intn(len(types))],
			RequestID:   int32(r.Uint32()),
			ErrorStatus: ErrorStatus(r.Intn(6)),
			ErrorIndex:  r.Intn(10),
		}
		for j := 0; j < r.Intn(6); j++ {
			msg.VarBinds = append(msg.VarBinds, VarBind{
				Name:  oid.MustParse("1.3.6.1.2.1").Append(uint32(r.Intn(100)), uint32(r.Intn(100))),
				Value: randValue(r),
			})
		}
		pkt, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(pkt)
		if err != nil {
			t.Fatalf("decode round %d: %v", i, err)
		}
		if got.Community != msg.Community || got.Type != msg.Type ||
			got.RequestID != msg.RequestID || got.ErrorStatus != msg.ErrorStatus ||
			got.ErrorIndex != msg.ErrorIndex || len(got.VarBinds) != len(msg.VarBinds) {
			t.Fatalf("round %d: header mismatch", i)
		}
		for j := range msg.VarBinds {
			if !got.VarBinds[j].Name.Equal(msg.VarBinds[j].Name) ||
				got.VarBinds[j].Value.String() != msg.VarBinds[j].Value.String() {
				t.Fatalf("round %d varbind %d mismatch", i, j)
			}
		}
	}
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randValue(r *rand.Rand) mib.Value {
	switch r.Intn(7) {
	case 0:
		return mib.Int(r.Int63() - r.Int63())
	case 1:
		return mib.Octets(randBytes(r, r.Intn(64)))
	case 2:
		return mib.Counter32(uint64(r.Uint32()))
	case 3:
		return mib.Gauge32(uint64(r.Uint32()))
	case 4:
		return mib.TimeTicks(uint64(r.Uint32()))
	case 5:
		return mib.IP(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
	default:
		return mib.Null()
	}
}
