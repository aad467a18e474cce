package rds

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// wireValue is any rds wire structure: its encoder is Encode.
type wireValue interface{ Encode() []byte }

// wireCase is one pinned encoding: a structure and its golden name.
type wireCase struct {
	name string
	v    wireValue
}

// goldenSync, goldenBundle, goldenStage and goldenFanout are the peer
// payloads, pinned on their own and carried inside the peer requests.
var (
	goldenSync = &SyncBatch{
		Reports: []SyncReport{{Key: "octet-rate", Value: "8192", TimeMS: 1234}, {Key: "errors", Value: "-3", TimeMS: -5}},
		Bundles: []BundleStatus{{Lineage: "probe-suite", Hash: "ab12", Version: 2, Staged: 2}, {Lineage: "idle", Staged: 1}},
	}
	goldenBundle = &Bundle{Lineage: "probe-suite", Version: 1 << 40, Items: []BundleItem{
		{DP: "agent", Lang: "dpl", Blob: []byte("func main() { return 1; }"), Entry: "main", Args: []string{"3", "s:x"}},
		{DP: "quiet", Lang: LangCompiled, Blob: []byte{0x30, 0x00, 0xff}},
	}}
	goldenStage = &StageResult{Lineage: "probe-suite", Hash: "ab12", Outcomes: []StageOutcome{
		{Member: "noc", Domain: "campus", Addr: "local", OK: true, AlreadyStaged: true},
		{Member: "lan-a", Domain: "lan-a", Addr: "10.0.0.2:5500", OK: true, ArtifactBytes: 300},
		{Member: "lan-b", Domain: "lan-b", Addr: "10.0.0.3:5500", Err: "unreachable"},
	}}
	goldenFanout = &FanoutResult{DP: "agent", Outcomes: []FanoutOutcome{
		{Member: "noc", Domain: "campus", Addr: "local", OK: true, DPI: "agent#1"},
		{Member: "lan-a", Domain: "lan-a", Addr: "10.0.0.2:5500", Err: "rejected: DPL007"},
	}}
)

// goldenRequests holds one request per request row of opTable.
var goldenRequests = map[Op]*Message{
	OpDelegate:           {Name: "health", Lang: "dpl", Payload: []byte("func main() { return 1; }"), Digest: bytes.Repeat([]byte{0xAA}, 16)},
	OpInstantiate:        {Name: "health", Entry: "main", Args: []string{"1", "s:x", "true"}},
	OpControl:            {Name: "health#1", Entry: "suspend"},
	OpSend:               {Name: "health#1", Payload: []byte("ping")},
	OpQuery:              {Name: "health#1"},
	OpDeleteDP:           {Name: "health"},
	OpSubscribe:          {Name: "health#"},
	OpEval:               {Lang: "dpl", Payload: []byte("func main(n) { return n; }"), Entry: "main", Args: []string{"7"}},
	OpStats:              {Entry: "trace", Name: "16"},
	OpPeerJoin:           {Name: "lan-a", Entry: "campus", Payload: []byte("10.0.0.2:5500")},
	OpPeerDelegate:       {Name: "agent", Lang: "dpl", Payload: []byte("func main() { return 1; }"), Entry: "main", Args: []string{"3"}},
	OpPeerSync:           {Name: "lan-a", Payload: goldenSync.Encode()},
	OpPeerBundleStage:    {Name: "probe-suite", Entry: "ab12", Payload: goldenBundle.Encode()},
	OpPeerBundleActivate: {Name: "probe-suite", Entry: "ab12"},
	OpView:               {Entry: "query", Name: "busy"},
}

// wireCases is every pinned encoding, in golden-file order.
func wireCases(t *testing.T) []wireCase {
	var cases []wireCase
	for op := range opTable {
		sp := &opTable[op]
		if sp.retry == 0 && sp.verbs == nil {
			continue // not a request
		}
		m, ok := goldenRequests[Op(op)]
		if !ok {
			t.Fatalf("no golden request for %s", Op(op))
		}
		m.Op, m.Seq, m.Principal = Op(op), uint32(op)*1000+7, "mgr"
		cases = append(cases, wireCase{"request-" + sp.name, m})
	}
	return append(cases,
		wireCase{"reply", &Message{Op: OpReply, Seq: 300, OK: false, Name: "health#2", Error: "rejected", TimeMS: 99,
			Payload: []byte("{}"),
			Infos: []InfoRec{
				{ID: "health#1", DP: "health", Entry: "main", State: "running", Steps: 1 << 33},
				{ID: "health#2", DP: "health", Entry: "main", State: "exited", Steps: 12, Result: "3", Err: "boom"},
			},
			Diags: []DiagRec{
				{Code: "DPL007", Severity: "error", Msg: "write outside grant", Line: 3, Col: 14},
				{Code: "DPL002", Severity: "warning", Msg: "unbounded loop", Line: -1, Col: 0},
			}}},
		wireCase{"event-batch", &Message{Op: OpEvent, Name: "a#1", Entry: "report", Payload: []byte("1"), TimeMS: 1 << 41, Principal: "mgr",
			Records: []Event{
				{DPI: "a#1", Kind: "report", Payload: "2", TimeMS: 1 << 41, Principal: "mgr"},
				{DPI: "b#7", Kind: "report", Payload: "3", TimeMS: 1<<41 + 300, Principal: "mgr"},
				{DPI: "b#7", Kind: "notify", Payload: "4", TimeMS: 1<<41 + 300, Principal: "ops"},
				{DPI: "a#1", Kind: "exit", Payload: "", TimeMS: 12, Principal: ""},
			}}},
		wireCase{"bundle", goldenBundle},
		wireCase{"stage-result", goldenStage},
		wireCase{"sync-batch", goldenSync},
		wireCase{"fanout-result", goldenFanout},
	)
}

// decodeWire decodes b as the structure v is.
func decodeWire(v wireValue, b []byte) (wireValue, error) {
	switch v.(type) {
	case *Message:
		return Decode(b)
	case *Bundle:
		return DecodeBundle(b)
	case *StageResult:
		return DecodeStageResult(b)
	case *SyncBatch:
		return DecodeSyncBatch(b)
	case *FanoutResult:
		return DecodeFanoutResult(b)
	}
	panic(fmt.Sprintf("no decoder for %T", v))
}

const wireGolden = "testdata/wire.golden"

// TestWireGolden pins the encoding of every rds wire structure: each
// encodes to its golden bytes, and the golden bytes decode back to the
// structure. Rewrite the golden file with
//
//	RDS_WRITE_GOLDEN=1 go test ./internal/rds -run TestWireGolden
func TestWireGolden(t *testing.T) {
	cases := wireCases(t)
	if os.Getenv("RDS_WRITE_GOLDEN") != "" {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %x\n", c.name, c.v.Encode())
		}
		if err := os.WriteFile(wireGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, hx, _ := strings.Cut(sc.Text(), " ")
		if want[name], err = hex.DecodeString(hx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d encodings, want %d", len(want), len(cases))
	}
	for _, c := range cases {
		if got := c.v.Encode(); !bytes.Equal(got, want[c.name]) {
			t.Errorf("%s: encoding changed\n got %x\nwant %x", c.name, got, want[c.name])
		}
		back, err := decodeWire(c.v, want[c.name])
		if err != nil {
			t.Errorf("%s: golden bytes do not decode: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(back, c.v) {
			t.Errorf("%s: golden bytes decode to\n%+v\nwant\n%+v", c.name, back, c.v)
		}
	}
}

// tagOffsets returns the offset of every element's tag in b, base
// added, walking into constructed elements, in encoding order.
func tagOffsets(b []byte, base int) []int {
	var offs []int
	for i := 0; i+1 < len(b); {
		tag, n, hdr := b[i], int(b[i+1]), 2
		if n >= 0x80 {
			k := n & 0x7f
			n = 0
			for _, x := range b[i+2 : i+2+k] {
				n = n<<8 | int(x)
			}
			hdr += k
		}
		offs = append(offs, base+i)
		if tag&0x20 != 0 {
			offs = append(offs, tagOffsets(b[i+hdr:i+hdr+n], base+i+hdr)...)
		}
		i += hdr + n
	}
	return offs
}

// TestDecodeChecksTags: for every structure, a valid encoding with any
// one element's tag changed does not decode — no field is read without
// checking the tag it carries.
func TestDecodeChecksTags(t *testing.T) {
	for _, c := range wireCases(t) {
		b := c.v.Encode()
		for _, off := range tagOffsets(b, 0) {
			bad := append([]byte(nil), b...)
			bad[off] = 0x1f
			if v, err := decodeWire(c.v, bad); err == nil {
				t.Errorf("%s: tag 0x%02x at %d changed, still decodes to %+v", c.name, b[off], off, v)
			}
		}
	}
}

// roundTrip holds decode to the property every codec fuzz target
// checks: whatever it accepts re-encodes to bytes that decode to a
// deep-equal value.
func roundTrip[T wireValue](t *testing.T, data []byte, decode func([]byte) (T, error)) {
	v, err := decode(data)
	if err != nil {
		return
	}
	again, err := decode(v.Encode())
	if err != nil {
		t.Fatalf("accepted %T does not re-decode: %v", v, err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, v)
	}
}
