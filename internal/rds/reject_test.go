package rds

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
)

func TestDiagRecRoundTrip(t *testing.T) {
	m := &Message{
		Op: OpReply, Seq: 7, Error: "rejected",
		Diags: []DiagRec{
			{Code: "DPL007", Severity: "error", Msg: "MIB write of 1.3.6.1.2.1 exceeds the principal's capability", Line: 3, Col: 2},
			{Code: "DPL001", Severity: "warning", Msg: "x may be used before it is assigned", Line: 2, Col: 9},
		},
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Diags) != 2 {
		t.Fatalf("diags = %+v", got.Diags)
	}
	for i := range m.Diags {
		if got.Diags[i] != m.Diags[i] {
			t.Fatalf("diag %d: got %+v want %+v", i, got.Diags[i], m.Diags[i])
		}
	}
	// Messages without a diag sequence at all (older encoders) still
	// decode: strip the trailing empty diagnostics sequence (30 00) and
	// shrink the short-form envelope length accordingly.
	enc := (&Message{Op: OpReply, Seq: 7, Error: "rejected"}).Encode()
	if enc[0] != 0x30 || enc[1] >= 0x80 || !bytes.Equal(enc[len(enc)-2:], []byte{0x30, 0x00}) {
		t.Fatalf("unexpected envelope shape: % x", enc)
	}
	legacy := append([]byte(nil), enc[:len(enc)-2]...)
	legacy[1] -= 2
	if got, err := Decode(legacy); err != nil || len(got.Diags) != 0 || got.Error != "rejected" {
		t.Fatalf("legacy decode: %v %+v", err, got)
	}
}

// TestDelegateRejectionPropagatesDiagnostics delegates a DP whose
// inferred MIB effects exceed the principal's capability and asserts
// the client receives the DPL007 code, position and all, through the
// wire protocol.
func TestDelegateRejectionPropagatesDiagnostics(t *testing.T) {
	bindings := dpl.Std()
	stub := func(_ *dpl.Env, _ []dpl.Value) (dpl.Value, error) { return dpl.Value{}, nil }
	bindings.Register("mibGet", 1, stub)
	bindings.Register("mibSet", 2, stub)

	acl := elastic.NewACL()
	acl.Grant("mgr", elastic.RightDelegate, elastic.RightInstantiate, elastic.RightControl,
		elastic.RightSend, elastic.RightQuery, elastic.RightDelete)
	acl.Limit("mgr", elastic.Capability{
		Reads:  []string{"1.3.6.1.2.1.1"},
		Writes: []string{},
	})
	proc := elastic.NewProcess(elastic.Config{Bindings: bindings, ACL: acl})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	err := c.Delegate(ctx, "overreach", `
func main() {
	mibSet("1.3.6.1.2.1.1.5.0", "pwned");
}`)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *rds.RejectError", err)
	}
	if !hasCode(rej, dpl.CodeEffectDenied) {
		t.Fatalf("diags = %+v", rej.Diags)
	}
	var d DiagRec
	for _, dd := range rej.Diags {
		if dd.Code == dpl.CodeEffectDenied {
			d = dd
		}
	}
	if d.Severity != "error" || d.Line != 3 {
		t.Fatalf("diag = %+v", d)
	}

	// An in-capability program still delegates and runs.
	if err := c.Delegate(ctx, "fine", `func main() { return mibGet("1.3.6.1.2.1.1.3.0"); }`); err != nil {
		t.Fatalf("in-grant delegate: %v", err)
	}

	// Eval follows the same admission: the rejection reply carries
	// diagnostics too.
	_, err = c.Eval(ctx, `func main() { mibSet("1.3.6.1.9.9", 1); }`, "main")
	if !errors.As(err, &rej) || !hasCode(rej, dpl.CodeEffectDenied) {
		t.Fatalf("eval err = %v", err)
	}
}

// TestStrictServerRejectsWarnings runs the server process in strict
// admission and checks a warning-only program is refused with its
// warning code on the wire.
func TestStrictServerRejectsWarnings(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{StrictAdmission: true})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	err := c.Delegate(ctx, "warny", `
func main() {
	var x;
	return x;
}`)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *rds.RejectError", err)
	}
	if !hasCode(rej, dpl.CodeUseBeforeInit) {
		t.Fatalf("diags = %+v", rej.Diags)
	}
	if !bytes.Contains([]byte(rej.Error()), []byte("rejected")) {
		t.Fatalf("error string = %q", rej.Error())
	}
}

// hasCode reports whether any of e's diagnostics carries code.
func hasCode(e *RejectError, code string) bool {
	for _, d := range e.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}
