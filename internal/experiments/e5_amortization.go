package experiments

import (
	"fmt"

	"mbd/internal/health"
	"mbd/internal/rds"
	"mbd/internal/snmp"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

// E5DelegationAmortization quantifies when delegation pays for itself
// against per-interaction remote access (the RPC/remote-evaluation
// comparison of the related-work chapter; late-binding RPC is "optimal
// performance in the number of network transits", and delegation
// amortizes even that).
//
// Task: evaluate the health function M times. RPC-style costs 2
// messages per evaluation (5-varbind Get + response). Delegation costs
// a fixed setup (Delegate carrying the DP source + Instantiate, 4
// messages) and then at most one one-way report per evaluation — zero
// when nothing is wrong. All sizes come from real wire encodings.
func E5DelegationAmortization() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Cumulative messages and bytes: per-evaluation SNMP vs delegate-once",
		Headers: []string{"evals M", "RPC msgs", "RPC bytes", "MbD msgs (periodic)", "MbD bytes (periodic)", "MbD msgs (exception)", "MbD bytes (exception)"},
	}

	// Real message sizes.
	counterOIDs := []oid.OID{
		mib.OIDEnetRxOk.Append(0), mib.OIDEnetColl.Append(0),
		mib.OIDEnetRxBcast.Append(0), mib.OIDEnetRxPkts.Append(0), mib.OIDEnetRxErrs.Append(0),
	}
	vbs := make([]snmp.VarBind, len(counterOIDs))
	for i, o := range counterOIDs {
		vbs[i] = snmp.VarBind{Name: o, Value: mib.Null()}
	}
	reqPkt, err := (&snmp.Message{Community: "public", Type: snmp.PDUGetRequest, RequestID: 1, VarBinds: vbs}).Encode()
	if err != nil {
		return nil, err
	}
	for i := range vbs {
		vbs[i].Value = mib.Counter32(123456789)
	}
	respPkt, err := (&snmp.Message{Community: "public", Type: snmp.PDUGetResponse, RequestID: 1, VarBinds: vbs}).Encode()
	if err != nil {
		return nil, err
	}
	rpcPerEval := len(reqPkt) + len(respPkt)

	src := health.AgentSource(health.DefaultIndex(), false)
	delegateMsg := &rds.Message{Op: rds.OpDelegate, Seq: 1, Principal: "mgr", Name: "health", Lang: "dpl", Payload: []byte(src)}
	instMsg := &rds.Message{Op: rds.OpInstantiate, Seq: 2, Principal: "mgr", Name: "health", Entry: "eval"}
	replyMsg := &rds.Message{Op: rds.OpReply, Seq: 1, OK: true, Name: "health#1"}
	reportMsg := &rds.Message{Op: rds.OpEvent, Name: "health#1", Entry: "report", Payload: []byte("UNHEALTHY score=0.421 u=0.45 c=0.05 b=0.55 e=0.002"), TimeMS: 100000}
	setupBytes := rds.FrameSize(delegateMsg.Encode()) + rds.FrameSize(instMsg.Encode()) + 2*rds.FrameSize(replyMsg.Encode())
	// The first report is the first event frame on its connection; each
	// later one follows the report before it, one evaluation period
	// (E2's default 10 s) earlier, and leaves out the DPI and kind it
	// repeats.
	firstBytes := rds.FrameSize(reportMsg.Encode())
	steady, err := reportMsg.AppendFrameAfter(nil, rds.Event{DPI: "health#1", Kind: "report", TimeMS: reportMsg.TimeMS - 10000})
	if err != nil {
		return nil, err
	}
	reportBytes := len(steady)
	reports := func(k int) int {
		if k == 0 {
			return 0
		}
		return firstBytes + (k-1)*reportBytes
	}
	const exceptionRate = 0.05 // one alarm per 20 evaluations

	var crossover int
	for _, m := range []int{1, 2, 5, 10, 20, 50, 100, 1000} {
		rpcB := m * rpcPerEval
		perB := setupBytes + reports(m)
		excB := setupBytes + reports(int(float64(m)*exceptionRate+0.5))
		if crossover == 0 && perB < rpcB {
			crossover = m
		}
		t.AddRow(
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", 2*m),
			fmtBytes(uint64(rpcB)),
			fmt.Sprintf("%d", 4+m),
			fmtBytes(uint64(perB)),
			fmt.Sprintf("%d", 4+int(float64(m)*exceptionRate+0.5)),
			fmtBytes(uint64(excB)),
		)
	}
	t.AddNote("setup = Delegate frame carrying the %dB health DP + Instantiate + replies (%dB total); RPC evaluation = %dB round trip; report = %dB one-way, %dB for the first on the connection", len(src), setupBytes, rpcPerEval, reportBytes, firstBytes)
	if crossover > 0 {
		t.AddNote("periodic-report delegation beats per-evaluation SNMP from M = %d; exception mode beats it from the first alarm-free interval", crossover)
	}
	return t, nil
}
