package analysis

import "mbd/internal/dpl"

// LintBindings returns an allowed-function table covering the full MbD
// server surface — the std builtins plus the MCVA view services, the
// MIB primitives, the trap service and the elastic instance services —
// with stub implementations, in the slots a server built with views
// (mbd.New) gives them, so an artifact compiled offline against it calls
// the hosts a stock server binds. It exists for offline linting (mbdctl
// lint), where programs must resolve and be analyzable without a live
// server; the stubs are never executed.
func LintBindings() *dpl.Bindings {
	b := dpl.Std()
	stub := func(_ *dpl.Env, _ []dpl.Value) (dpl.Value, error) { return dpl.Value{}, nil }
	for _, f := range []struct {
		name  string
		arity int
	}{
		// MCVA view services (internal/vdl/mcva.go), in name order.
		{"snapshotDrop", 1}, {"snapshotRows", 1}, {"viewDefine", 1},
		{"viewQuery", 1}, {"viewSnapshot", 1},
		// MbD server MIB services (internal/mbd/server.go).
		{"mibGet", 1}, {"mibNext", 1}, {"mibWalk", 1}, {"mibSet", 2},
		{"sysname", 0}, {"snmpGet", 2}, {"snmpNext", 2},
		// Trap service (internal/mbd/trap.go).
		{"trap", 2},
		// Elastic process instance services (internal/elastic/dpi.go).
		{"sleep", 1}, {"now", 0}, {"recv", 1}, {"report", 1},
		{"notify", 1}, {"log", 1}, {"dpiid", 0}, {"sendto", 2},
	} {
		b.Register(f.name, f.arity, stub)
	}
	return b
}
