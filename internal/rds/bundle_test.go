package rds

import (
	"reflect"
	"strings"
	"testing"
)

// TestBundleRoundTrip: the golden-bundle BER codec reproduces every
// field, and the content address is stable across re-encodes.
func TestBundleRoundTrip(t *testing.T) {
	for _, b := range []*Bundle{
		{Lineage: "empty"},
		{Lineage: "probe-suite", Version: 3, Items: []BundleItem{
			{DP: "agent", Lang: LangCompiled, Blob: []byte{0x30, 0x03, 0x02, 0x01, 0x07}, Entry: "main", Args: []string{"3", "s:x"}},
			{DP: "lib", Lang: "dpl", Blob: []byte("func helper() { return 2; }")},
		}},
	} {
		raw := b.Encode()
		got, err := DecodeBundle(raw)
		if err != nil {
			t.Fatalf("%s: %v", b.Lineage, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, b)
		}
		if HashBundle(raw) != HashBundle(got.Encode()) {
			t.Fatalf("%s: content address unstable across re-encode", b.Lineage)
		}
	}
	if len(HashBundle(nil)) != 64 {
		t.Fatalf("HashBundle must render a full hex sha256")
	}
}

// TestStageResultRoundTrip covers the outcome flags (OK/AlreadyStaged)
// and the byte accounting the delta-push assertion rests on.
func TestStageResultRoundTrip(t *testing.T) {
	r := &StageResult{Lineage: "probe-suite", Hash: "ab12", Outcomes: []StageOutcome{
		{Member: "root", Domain: "campus", Addr: "local", OK: true, ArtifactBytes: 512},
		{Member: "lan-a", Domain: "lan-a", Addr: "10.0.0.2:5500", OK: true, AlreadyStaged: true},
		{Member: "lan-b", Domain: "lan-b", Addr: "10.0.0.3:5500", Err: "transport: connection refused"},
	}}
	got, err := DecodeStageResult(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, r)
	}
	if got.Staged() != 2 {
		t.Fatalf("Staged() = %d, want 2", got.Staged())
	}
	if got.TransferredBytes() != 512 {
		t.Fatalf("TransferredBytes() = %d, want 512", got.TransferredBytes())
	}
}

// TestSyncBatchRoundTrip: the batched heartbeat frame reproduces its
// reports and bundle statuses exactly.
func TestSyncBatchRoundTrip(t *testing.T) {
	for _, b := range []*SyncBatch{
		{}, // bare heartbeat
		{Reports: []SyncReport{
			{Key: "octet-rate", Value: "8192", TimeMS: 1234},
			{Key: "load", Value: "0.7", TimeMS: 1235},
		}, Bundles: []BundleStatus{
			{Lineage: "probe-suite", Hash: strings.Repeat("ab", 32), Version: 4, Staged: 2},
			{Lineage: "dormant"},
		}},
	} {
		got, err := DecodeSyncBatch(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Reports) != len(b.Reports) || len(got.Bundles) != len(b.Bundles) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, b)
		}
		for i := range b.Reports {
			if got.Reports[i] != b.Reports[i] {
				t.Fatalf("report %d diverged: got %+v want %+v", i, got.Reports[i], b.Reports[i])
			}
		}
		for i := range b.Bundles {
			if got.Bundles[i] != b.Bundles[i] {
				t.Fatalf("bundle status %d diverged: got %+v want %+v", i, got.Bundles[i], b.Bundles[i])
			}
		}
	}
}

// FuzzDecodeBundle: arbitrary bytes must never panic any of the three
// codecs, and whatever each accepts must re-encode to bytes that decode
// to a deep-equal value.
func FuzzDecodeBundle(f *testing.F) {
	f.Add((&Bundle{Lineage: "probe-suite", Version: 1, Items: []BundleItem{
		{DP: "agent", Lang: "dpl", Blob: []byte("func main() { return 1; }"), Entry: "main", Args: []string{"3"}},
	}}).Encode())
	f.Add((&StageResult{Lineage: "l", Hash: "h", Outcomes: []StageOutcome{
		{Member: "m", OK: true, ArtifactBytes: 9},
	}}).Encode())
	f.Add((&SyncBatch{Reports: []SyncReport{{Key: "k", Value: "v", TimeMS: 7}}}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x00})
	f.Add(goldenBundle.Encode())
	f.Add(goldenStage.Encode())
	f.Add(goldenSync.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, DecodeBundle)
		roundTrip(t, data, DecodeStageResult)
		roundTrip(t, data, DecodeSyncBatch)
	})
}
