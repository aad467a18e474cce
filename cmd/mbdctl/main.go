// Command mbdctl is the delegator's CLI: it speaks RDS to an mbdserver.
//
// Usage:
//
//	mbdctl -server host:5500 [-principal mgr] [-secret s3cret] <command>
//
// -server udp://host:port sends each request as one RDS datagram to a
// server started with -rdsudp; watch needs the TCP transport.
//
// Commands:
//
//	delegate <name> <file.dpl>     translate & store a delegated program
//	instantiate <dp> <entry> [a..] start an instance; prints its id
//	control <dpi> <suspend|resume|terminate>
//	send <dpi> <message>
//	query [dpi]                    list instance status
//	delete <dp>                    remove a program
//	eval <file.dpl> <entry> [a..]  one-shot remote evaluation (REV style)
//	watch [prefix]                 subscribe and stream events
//	stats                          dump the server's metrics (Prometheus text)
//	trace [n]                      dump the server's last n lifecycle spans (JSON)
//	lint <file.dpl>...             static-analyze programs locally
//	tenant status                  live per-tenant usage/billing table
//	tenant quota [principal]       effective quotas (default + overrides)
//	domain status                  the server's federation status (JSON)
//	domain members                 the server's domain membership table
//	domain delegate <name> <file.dpl> [entry [args...]]
//	                               cascade a delegation through the domain
//	                               tree, printing every member's outcome
//	domain rollout <lineage> <version> <file.dpl>...
//	                               publish the files as a golden bundle
//	                               (content-addressed; unchanged members
//	                               transfer zero bytes) and atomically
//	                               activate it fleet-wide
//	domain rollback <lineage> <hash>
//	                               atomically re-activate a previously
//	                               staged bundle hash everywhere
//	domain bundles                 the domain's bundle inventory
//	view status                    maintained views + maintenance counters
//	view define <file.vdl>         install views kept continuously materialized
//	view query <name>              one view's current rows
//	view watch <name> [n]          poll a view, printing each change (n
//	                               changes then exit; default forever)
//
// Unknown commands print the usage summary and exit 2.
//
// lint runs entirely offline — no server connection — against the full
// MbD host-function surface, printing compiler-style diagnostics plus
// each program's inferred effects and cost estimate. Translator rule
// violations (undeclared names, unbound calls, arity, ...) are coded
// error findings like any other. It exits 1 if any file has
// error-severity findings (and with -strict, any finding), and 2 when a
// file cannot be read or parsed.
// With -json it emits one JSON array instead, one record per file with
// stable diagnostic codes, positions and severities for editor and CI
// integration.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/rds"
)

func main() {
	server := flag.String("server", "127.0.0.1:5500", "RDS server address: host:port (TCP) or udp://host:port (datagrams)")
	principal := flag.String("principal", "mgr", "principal name")
	secret := flag.String("secret", "", "MD5 shared secret (empty = no auth)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	strict := flag.Bool("strict", false, "lint: treat warnings as errors")
	jsonOut := flag.Bool("json", false, "lint: emit machine-readable JSON instead of text")
	flag.Parse()

	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Reject unknown commands before dialing, so a typo fails with
	// usage instead of a connection attempt.
	if !validCommand(flag.Arg(0)) {
		fmt.Fprintf(os.Stderr, "mbdctl: unknown command %q\n\ncommands:\n%s", flag.Arg(0), commandUsage())
		os.Exit(2)
	}
	// lint is local-only: no dial, no principal.
	if flag.Arg(0) == "lint" {
		os.Exit(lint(flag.Args()[1:], *strict, *jsonOut))
	}
	if err := run(*server, *principal, *secret, *timeout, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "mbdctl:", err)
		os.Exit(1)
	}
}

// commands maps every subcommand to its one-line usage.
var commands = [][2]string{
	{"delegate", "delegate <name> <file.dpl>"},
	{"instantiate", "instantiate <dp> <entry> [args...]"},
	{"control", "control <dpi> <suspend|resume|terminate>"},
	{"send", "send <dpi> <message>"},
	{"query", "query [dpi]"},
	{"delete", "delete <dp>"},
	{"eval", "eval <file.dpl> <entry> [args...]"},
	{"watch", "watch [prefix]"},
	{"stats", "stats"},
	{"trace", "trace [n]"},
	{"lint", "lint <file.dpl>..."},
	{"tenant", "tenant status | quota [principal]"},
	{"domain", "domain status | members | bundles | delegate <name> <file.dpl> [entry [args...]] | rollout <lineage> <version> <file.dpl>... | rollback <lineage> <hash>"},
	{"view", "view status | define <file.vdl> | query <name> | watch <name> [n]"},
}

// validCommand reports whether cmd is a known subcommand.
func validCommand(cmd string) bool {
	for _, c := range commands {
		if c[0] == cmd {
			return true
		}
	}
	return false
}

// commandUsage renders the per-command usage lines.
func commandUsage() string {
	out := ""
	for _, c := range commands {
		out += "  " + c[1] + "\n"
	}
	return out
}

// lintDiag is one finding in `lint -json` output. The field set and
// names are a stable machine contract (editor/CI integrations key off
// code, severity and position); extend it, never rename.
type lintDiag struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Msg      string `json:"msg"`
}

// lintFile is one file's record in `lint -json` output. Error is set
// (and the analysis fields zeroed) when the file failed to read or
// parse — failures that precede analysis; a parse error's text carries
// its code.
type lintFile struct {
	File        string     `json:"file"`
	Error       string     `json:"error,omitempty"`
	Diagnostics []lintDiag `json:"diagnostics"`
	Hosts       []string   `json:"hosts"`
	Reads       []string   `json:"reads"`
	Writes      []string   `json:"writes"`
	CostSteps   uint64     `json:"cost_steps"`
	Unbounded   bool       `json:"cost_unbounded"`
	StepBudget  uint64     `json:"suggested_step_budget"`
}

// orEmpty keeps JSON slices as [] instead of null.
func orEmpty(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// lint statically analyzes each file against the full MbD host surface
// and prints its diagnostics, effects and cost — compiler-style text by
// default, one stable JSON array with asJSON. Returns the exit code:
// 0 clean, 1 findings (Translator rules included), 2 usage/IO/parse
// failure.
func lint(files []string, strict, asJSON bool) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mbdctl [-strict] [-json] lint <file.dpl>...")
		return 2
	}
	bindings := analysis.LintBindings()
	code := 0
	raise := func(c int) {
		if c > code {
			code = c
		}
	}
	report := make([]lintFile, 0, len(files))
	fail := func(file, msg string) {
		if asJSON {
			report = append(report, lintFile{
				File: file, Error: msg,
				Diagnostics: []lintDiag{},
				Hosts:       []string{}, Reads: []string{}, Writes: []string{},
			})
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s\n", file, msg)
		}
		raise(2)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fail(file, err.Error())
			continue
		}
		s := analysis.Borrow()
		prog, err := s.Parse(string(src))
		if err != nil {
			s.Release()
			fail(file, err.Error())
			continue
		}
		// The pipeline source admission runs; a program breaking a
		// Translator rule gets the analyzer's findings all the same.
		_, rep, err := s.Translate(prog, bindings)
		if err != nil {
			rep = s.Analyze(prog, bindings)
		}
		s.Release()
		errs, warns := dpl.Counts(rep.Diags)
		if errs > 0 || (strict && warns > 0) {
			raise(1)
		}
		if asJSON {
			diags := make([]lintDiag, 0, len(rep.Diags))
			for _, d := range rep.Diags {
				diags = append(diags, lintDiag{
					Code: d.Code, Severity: d.Sev.String(),
					Line: d.Pos.Line, Col: d.Pos.Col, Msg: d.Msg,
				})
			}
			report = append(report, lintFile{
				File:        file,
				Diagnostics: diags,
				Hosts:       orEmpty(rep.Effects.HostNames()),
				Reads:       orEmpty(rep.Effects.ReadPrefixes()),
				Writes:      orEmpty(rep.Effects.WritePrefixes()),
				CostSteps:   rep.Cost.Steps,
				Unbounded:   rep.Cost.Unbounded,
				StepBudget:  rep.SuggestedBudget(0),
			})
			continue
		}
		for _, d := range rep.Diags {
			fmt.Printf("%s:%s\n", file, d)
		}
		fmt.Printf("%s: effects: %s\n", file, rep.Effects.String())
		if rep.Cost.Unbounded {
			fmt.Printf("%s: cost: %s (step budget: server default)\n", file, rep.Cost.String())
		} else {
			fmt.Printf("%s: cost: %s (suggested step budget: %d)\n", file, rep.Cost.String(), rep.SuggestedBudget(0))
		}
	}
	if asJSON {
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbdctl:", err)
			return 2
		}
		fmt.Println(string(out))
	}
	return code
}

// udpAttempts is how many times mbdctl sends a datagram request the op
// table marks idempotent; each attempt waits its share of -timeout.
const udpAttempts = 3

func run(server, principal, secret string, timeout time.Duration, args []string) error {
	opts := []rds.ClientOption{ // datagram transport only
		rds.WithPacketTimeout(timeout / udpAttempts), rds.WithPacketRetries(udpAttempts - 1),
	}
	if secret != "" {
		auth := rds.NewAuthenticator()
		auth.SetSecret(principal, secret)
		opts = append(opts, rds.WithAuth(auth))
	}
	c, err := rds.Dial(server, principal, opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "delegate":
		if len(rest) != 2 {
			return fmt.Errorf("usage: delegate <name> <file.dpl>")
		}
		src, err := os.ReadFile(rest[1])
		if err != nil {
			return err
		}
		if err := c.Delegate(ctx, rest[0], string(src)); err != nil {
			return describeReject(rest[1], err)
		}
		fmt.Printf("delegated %q (%d bytes)\n", rest[0], len(src))
	case "instantiate":
		if len(rest) < 2 {
			return fmt.Errorf("usage: instantiate <dp> <entry> [args...]")
		}
		id, err := c.Instantiate(ctx, rest[0], rest[1], rest[2:]...)
		if err != nil {
			return err
		}
		fmt.Println(id)
	case "control":
		if len(rest) != 2 {
			return fmt.Errorf("usage: control <dpi> <suspend|resume|terminate>")
		}
		if err := c.Control(ctx, rest[0], rest[1]); err != nil {
			return err
		}
		fmt.Printf("%s: %s\n", rest[0], rest[1])
	case "send":
		if len(rest) != 2 {
			return fmt.Errorf("usage: send <dpi> <message>")
		}
		if err := c.Send(ctx, rest[0], rest[1]); err != nil {
			return err
		}
	case "query":
		dpi := ""
		if len(rest) > 0 {
			dpi = rest[0]
		}
		infos, err := c.Query(ctx, dpi)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-14s %-8s %-10s %-10s %s\n", "DPI", "DP", "ENTRY", "STATE", "STEPS", "RESULT/ERROR")
		for _, inf := range infos {
			out := inf.Result
			if inf.Err != "" {
				out = inf.Err
			}
			fmt.Printf("%-18s %-14s %-8s %-10s %-10d %s\n", inf.ID, inf.DP, inf.Entry, inf.State, inf.Steps, out)
		}
	case "delete":
		if len(rest) != 1 {
			return fmt.Errorf("usage: delete <dp>")
		}
		if err := c.DeleteDP(ctx, rest[0]); err != nil {
			return err
		}
	case "eval":
		if len(rest) < 2 {
			return fmt.Errorf("usage: eval <file.dpl> <entry> [args...]")
		}
		src, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		out, err := c.Eval(ctx, string(src), rest[1], rest[2:]...)
		if err != nil {
			return describeReject(rest[0], err)
		}
		fmt.Println(out)
	case "stats":
		out, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "trace":
		max := 0
		if len(rest) > 0 {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 0 {
				return fmt.Errorf("usage: trace [n]")
			}
			max = n
		}
		out, err := c.Trace(ctx, max)
		if err != nil {
			return err
		}
		fmt.Println(out)
	case "watch":
		filter := ""
		if len(rest) > 0 {
			filter = rest[0]
		}
		if err := c.Subscribe(ctx, filter); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "watching events (ctrl-c to stop)")
		// ctrl-c closes the client, ending the stream, so the drop
		// count still prints.
		sctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		context.AfterFunc(sctx, func() { c.Close() })
		watchEvents(c, os.Stdout, os.Stderr)
	case "tenant":
		return tenantCmd(ctx, c, rest)
	case "domain":
		return domainCmd(ctx, c, rest)
	case "view":
		return viewCmd(ctx, c, rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// watchEvents prints c's events until the stream ends, then how many
// events the client dropped because this loop fell behind, if any.
func watchEvents(c *rds.Client, out, errOut io.Writer) {
	for ev := range c.Events() {
		fmt.Fprintf(out, "%8dms  %-16s %-7s %s\n", ev.TimeMS, ev.DPI, ev.Kind, ev.Payload)
	}
	if n := c.EventsDropped(); n > 0 {
		fmt.Fprintf(errOut, "%d events dropped: the event stream outran this terminal\n", n)
	}
}

// viewDoc mirrors the view engine's status payload.
type viewDoc struct {
	Views []struct {
		Name       string   `json:"name"`
		Columns    []string `json:"columns"`
		Rows       int      `json:"rows"`
		BaseRows   int      `json:"base_rows"`
		Recomputes uint64   `json:"recomputes"`
		Error      string   `json:"error"`
	} `json:"views"`
	Stats struct {
		DeltasFolded uint64 `json:"deltas_folded"`
		Recomputes   uint64 `json:"recomputes"`
		ChangesLost  uint64 `json:"changes_lost"`
	} `json:"stats"`
}

// viewRows mirrors the view engine's query payload.
type viewRows struct {
	View     string   `json:"view"`
	Columns  []string `json:"columns"`
	Rows     [][]any  `json:"rows"`
	BaseRows int      `json:"base_rows"`
}

// printViewRows renders one view result as an aligned table.
func printViewRows(v viewRows) {
	for i, col := range v.Columns {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Printf("%-14s", col)
	}
	fmt.Println()
	for _, row := range v.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Print("  ")
			}
			// JSON numbers arrive as float64; render integral values
			// (SNMP counters, row indexes) without an exponent.
			if f, ok := cell.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1e15 {
				fmt.Printf("%-14d", int64(f))
				continue
			}
			fmt.Printf("%-14v", cell)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows over %d base rows)\n", len(v.Rows), v.BaseRows)
}

// viewCmd handles the incremental-view subcommands.
func viewCmd(ctx context.Context, c *rds.Client, rest []string) error {
	if len(rest) < 1 {
		return fmt.Errorf("usage: view status | define <file.vdl> | query <name> | watch <name> [n]")
	}
	switch rest[0] {
	case "status":
		out, err := c.ViewStatus(ctx)
		if err != nil {
			return err
		}
		var doc viewDoc
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			return fmt.Errorf("parsing view status: %w", err)
		}
		fmt.Printf("%-16s %-6s %-6s %-10s %s\n", "VIEW", "ROWS", "BASE", "RECOMPUTES", "COLUMNS")
		for _, v := range doc.Views {
			cols := strings.Join(v.Columns, ",")
			if v.Error != "" {
				cols = "ERROR: " + v.Error
			}
			fmt.Printf("%-16s %-6d %-6d %-10d %s\n", v.Name, v.Rows, v.BaseRows, v.Recomputes, cols)
		}
		fmt.Printf("deltas folded %d, recomputes %d, changes lost %d\n",
			doc.Stats.DeltasFolded, doc.Stats.Recomputes, doc.Stats.ChangesLost)
	case "define":
		if len(rest) != 2 {
			return fmt.Errorf("usage: view define <file.vdl>")
		}
		src, err := os.ReadFile(rest[1])
		if err != nil {
			return err
		}
		out, err := c.ViewDefine(ctx, string(src))
		if err != nil {
			return err
		}
		fmt.Println(out)
	case "query":
		if len(rest) != 2 {
			return fmt.Errorf("usage: view query <name>")
		}
		out, err := c.ViewQuery(ctx, rest[1])
		if err != nil {
			return err
		}
		var v viewRows
		if err := json.Unmarshal([]byte(out), &v); err != nil {
			return fmt.Errorf("parsing view rows: %w", err)
		}
		printViewRows(v)
	case "watch":
		if len(rest) < 2 {
			return fmt.Errorf("usage: view watch <name> [n]")
		}
		limit := 0
		if len(rest) > 2 {
			n, err := strconv.Atoi(rest[2])
			if err != nil || n < 1 {
				return fmt.Errorf("usage: view watch <name> [n]")
			}
			limit = n
		}
		return viewWatch(ctx, c, rest[1], limit)
	default:
		return fmt.Errorf("unknown view subcommand %q (want status, define, query or watch)", rest[0])
	}
	return nil
}

// viewWatch polls the maintained view and prints it whenever its
// content changes — the manager-side window onto a continuously
// materialized view. limit > 0 exits after that many updates (the
// initial print counts as the first).
func viewWatch(ctx context.Context, c *rds.Client, name string, limit int) error {
	last := ""
	printed := 0
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		out, err := c.ViewQuery(ctx, name)
		if err != nil {
			return err
		}
		if out != last {
			last = out
			var v viewRows
			if err := json.Unmarshal([]byte(out), &v); err != nil {
				return fmt.Errorf("parsing view rows: %w", err)
			}
			fmt.Printf("-- %s @ %s\n", name, time.Now().Format("15:04:05.000"))
			printViewRows(v)
			printed++
			if limit > 0 && printed >= limit {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// tenantQuota mirrors elastic.Quota's JSON form.
type tenantQuota struct {
	MaxLiveDPIs     int    `json:"max_live_dpis,omitempty"`
	StepsPerSec     uint64 `json:"steps_per_sec,omitempty"`
	EventsPerSec    uint64 `json:"events_per_sec,omitempty"`
	RepositoryBytes int64  `json:"repository_bytes,omitempty"`
	RequestsPerSec  uint64 `json:"requests_per_sec,omitempty"`
	Weight          int    `json:"weight,omitempty"`
}

// String renders a quota in the -quota flag's spec syntax; every axis
// shown, 0 meaning unlimited.
func (q tenantQuota) String() string {
	return fmt.Sprintf("dpis=%d,steps=%d,events=%d,repo=%d,reqs=%d,weight=%d",
		q.MaxLiveDPIs, q.StepsPerSec, q.EventsPerSec, q.RepositoryBytes, q.RequestsPerSec, q.Weight)
}

// tenantDoc mirrors the server's OpStats "tenants" view.
type tenantDoc struct {
	DefaultQuota tenantQuota `json:"default_quota"`
	Tenants      []struct {
		Principal    string      `json:"principal"`
		Quota        tenantQuota `json:"quota"`
		Override     bool        `json:"override"`
		Weight       int         `json:"weight"`
		LiveDPIs     int64       `json:"live_dpis"`
		RepoBytes    int64       `json:"repo_bytes"`
		Steps        uint64      `json:"steps_total"`
		Events       uint64      `json:"events_total"`
		Throttles    uint64      `json:"throttles_total"`
		Suspensions  uint64      `json:"suspensions_total"`
		Terminations uint64      `json:"terminations_total"`
		Rejections   uint64      `json:"rejections_total"`
		RequestsShed uint64      `json:"requests_shed_total"`
		Blocked      string      `json:"blocked"`
	} `json:"tenants"`
}

// tenantCmd handles the multi-tenant subcommands: status renders the
// live per-tenant usage/billing table, quota the effective quotas.
func tenantCmd(ctx context.Context, c *rds.Client, rest []string) error {
	if len(rest) < 1 {
		return fmt.Errorf("usage: tenant status | quota [principal]")
	}
	out, err := c.TenantStatus(ctx)
	if err != nil {
		return err
	}
	var doc tenantDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		return fmt.Errorf("parsing tenant status: %w", err)
	}
	switch rest[0] {
	case "status":
		fmt.Printf("%-12s %-6s %-5s %-10s %-12s %-8s %-5s %-5s %-5s %-5s %-5s %s\n",
			"PRINCIPAL", "WEIGHT", "DPIS", "REPO-BYTES", "STEPS", "EVENTS", "THR", "SUSP", "KILL", "REJ", "SHED", "BLOCKED")
		for _, t := range doc.Tenants {
			blocked := t.Blocked
			if blocked == "" {
				blocked = "-"
			}
			fmt.Printf("%-12s %-6d %-5d %-10d %-12d %-8d %-5d %-5d %-5d %-5d %-5d %s\n",
				t.Principal, t.Weight, t.LiveDPIs, t.RepoBytes, t.Steps, t.Events,
				t.Throttles, t.Suspensions, t.Terminations, t.Rejections, t.RequestsShed, blocked)
		}
	case "quota":
		if len(rest) > 1 {
			for _, t := range doc.Tenants {
				if t.Principal == rest[1] {
					src := "default"
					if t.Override {
						src = "override"
					}
					fmt.Printf("%s (%s): %s\n", t.Principal, src, t.Quota)
					return nil
				}
			}
			fmt.Printf("%s (default): %s\n", rest[1], doc.DefaultQuota)
			return nil
		}
		fmt.Printf("default: %s\n", doc.DefaultQuota)
		for _, t := range doc.Tenants {
			if t.Override {
				fmt.Printf("%s: %s\n", t.Principal, t.Quota)
			}
		}
	default:
		return fmt.Errorf("unknown tenant subcommand %q (want status or quota)", rest[0])
	}
	return nil
}

// domainCmd handles the federation subcommands.
func domainCmd(ctx context.Context, c *rds.Client, rest []string) error {
	if len(rest) < 1 {
		return fmt.Errorf("usage: domain status | members | bundles | delegate ... | rollout ... | rollback ...")
	}
	switch rest[0] {
	case "status":
		out, err := c.DomainStatus(ctx)
		if err != nil {
			return err
		}
		fmt.Println(out)
	case "members":
		out, err := c.DomainStatus(ctx)
		if err != nil {
			return err
		}
		var st struct {
			Domain  string `json:"domain"`
			Members []struct {
				Name        string `json:"name"`
				Domain      string `json:"domain"`
				Addr        string `json:"addr"`
				State       string `json:"state"`
				SinceSeenMS int64  `json:"since_seen_ms"`
				Reports     uint64 `json:"reports"`
			} `json:"members"`
		}
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			return fmt.Errorf("parsing domain status: %w", err)
		}
		fmt.Printf("domain %q: %d member(s)\n", st.Domain, len(st.Members))
		fmt.Printf("%-16s %-16s %-22s %-8s %-10s %s\n", "MEMBER", "DOMAIN", "ADDR", "STATE", "SEEN-AGO", "REPORTS")
		for _, m := range st.Members {
			fmt.Printf("%-16s %-16s %-22s %-8s %-10s %d\n",
				m.Name, m.Domain, m.Addr, m.State,
				(time.Duration(m.SinceSeenMS) * time.Millisecond).Round(time.Millisecond), m.Reports)
		}
	case "delegate":
		if len(rest) < 3 {
			return fmt.Errorf("usage: domain delegate <name> <file.dpl> [entry [args...]]")
		}
		src, err := os.ReadFile(rest[2])
		if err != nil {
			return err
		}
		entry := ""
		var args []string
		if len(rest) > 3 {
			entry = rest[3]
			args = rest[4:]
		}
		res, err := c.PeerDelegate(ctx, rest[1], string(src), entry, args...)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %-16s %-22s %-8s %s\n", "MEMBER", "DOMAIN", "ADDR", "RESULT", "DPI/ERROR")
		for _, o := range res.Outcomes {
			result, detail := "accepted", o.DPI
			if !o.OK {
				result, detail = "rejected", o.Err
			}
			fmt.Printf("%-16s %-16s %-22s %-8s %s\n", o.Member, o.Domain, o.Addr, result, detail)
		}
		if rej := res.Rejected(); rej > 0 {
			return fmt.Errorf("%d of %d hops rejected %q", rej, len(res.Outcomes), res.DP)
		}
		fmt.Printf("cascaded %q to %d member(s)\n", res.DP, res.Accepted())
	case "rollout":
		if len(rest) < 4 {
			return fmt.Errorf("usage: domain rollout <lineage> <version> <file.dpl>...")
		}
		lineage := rest[1]
		version, err := strconv.ParseUint(rest[2], 10, 64)
		if err != nil {
			return fmt.Errorf("usage: domain rollout <lineage> <version> <file.dpl>... (version must be a number)")
		}
		bundle := &rds.Bundle{Lineage: lineage, Version: version}
		for _, file := range rest[3:] {
			src, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			dp := strings.TrimSuffix(filepath.Base(file), ".dpl")
			bundle.Items = append(bundle.Items, rds.BundleItem{
				DP: dp, Lang: "dpl", Blob: src, Entry: "main",
			})
		}
		// Publish source form: the root compiles, content-addresses the
		// golden bundle, and pushes it down the tree (members already
		// holding the hash answer the probe — zero bytes moved).
		res, err := c.PeerBundleStage(ctx, lineage, "", bundle.Encode())
		if err != nil {
			return describeReject(rest[3], err)
		}
		fmt.Printf("golden bundle %s v%d: %s\n", lineage, version, res.Hash)
		fmt.Printf("%-16s %-16s %-22s %-8s %s\n", "MEMBER", "DOMAIN", "ADDR", "STAGE", "BYTES/ERROR")
		for _, o := range res.Outcomes {
			stage, detail := "staged", strconv.FormatUint(o.ArtifactBytes, 10)
			if o.AlreadyStaged {
				stage = "cached"
			}
			if !o.OK {
				stage, detail = "failed", o.Err
			}
			fmt.Printf("%-16s %-16s %-22s %-8s %s\n", o.Member, o.Domain, o.Addr, stage, detail)
		}
		if staged, total := res.Staged(), len(res.Outcomes); staged < total {
			return fmt.Errorf("staged at %d of %d members; not activating", staged, total)
		}
		fmt.Printf("staged at %d member(s), %d artifact byte(s) transferred\n",
			res.Staged(), res.TransferredBytes())
		return activateBundle(ctx, c, lineage, res.Hash)
	case "rollback":
		if len(rest) != 3 {
			return fmt.Errorf("usage: domain rollback <lineage> <hash>")
		}
		return activateBundle(ctx, c, rest[1], rest[2])
	case "bundles":
		out, err := c.DomainStatus(ctx)
		if err != nil {
			return err
		}
		var st struct {
			Domain  string             `json:"domain"`
			Bundles []rds.BundleStatus `json:"bundles"`
			Members []struct {
				Name    string             `json:"name"`
				State   string             `json:"state"`
				Bundles []rds.BundleStatus `json:"bundles"`
			} `json:"members"`
		}
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			return fmt.Errorf("parsing domain status: %w", err)
		}
		fmt.Printf("%-16s %-16s %-10s %-8s %s\n", "MEMBER", "LINEAGE", "VERSION", "STAGED", "ACTIVE-HASH")
		printRow := func(member, state string, b rds.BundleStatus) {
			hash := b.Hash
			if hash == "" {
				hash = "(none)"
			}
			fmt.Printf("%-16s %-16s %-10d %-8d %s\n", member+state, b.Lineage, b.Version, b.Staged, hash)
		}
		for _, b := range st.Bundles {
			printRow("(self)", "", b)
		}
		for _, m := range st.Members {
			suffix := ""
			if m.State != "alive" {
				suffix = " [" + m.State + "]"
			}
			for _, b := range m.Bundles {
				printRow(m.Name, suffix, b)
			}
		}
	default:
		return fmt.Errorf("unknown domain subcommand %q (want status, members, bundles, delegate, rollout or rollback)", rest[0])
	}
	return nil
}

// activateBundle flips the domain's active pointer for lineage to hash
// and prints every member's outcome.
func activateBundle(ctx context.Context, c *rds.Client, lineage, hash string) error {
	res, err := c.PeerBundleActivate(ctx, lineage, hash)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-16s %-22s %-8s %s\n", "MEMBER", "DOMAIN", "ADDR", "RESULT", "DPI/ERROR")
	for _, o := range res.Outcomes {
		result, detail := "active", o.DPI
		if !o.OK {
			result, detail = "rejected", o.Err
		}
		fmt.Printf("%-16s %-16s %-22s %-8s %s\n", o.Member, o.Domain, o.Addr, result, detail)
	}
	if rej := res.Rejected(); rej > 0 {
		return fmt.Errorf("%d of %d hops rejected activation of %.12s…", rej, len(res.Outcomes), hash)
	}
	fmt.Printf("activated %s %.12s… at %d member(s)\n", lineage, hash, res.Accepted())
	return nil
}

// describeReject prints the structured diagnostics of a server-side
// static-analysis rejection (one compiler-style line per finding) and
// returns a short summary error; other errors pass through unchanged.
func describeReject(file string, err error) error {
	var rej *rds.RejectError
	if !errors.As(err, &rej) {
		return err
	}
	for _, d := range rej.Diags {
		fmt.Fprintf(os.Stderr, "%s:%s\n", file, d)
	}
	return fmt.Errorf("%s rejected by the server's static analyzer (%d diagnostics)", file, len(rej.Diags))
}
