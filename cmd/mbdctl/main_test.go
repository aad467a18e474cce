package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/rds"
)

// TestValidCommand pins the subcommand table: every documented command
// is accepted, typos are not, and the usage text mentions each one.
func TestValidCommand(t *testing.T) {
	for _, c := range commands {
		if !validCommand(c[0]) {
			t.Errorf("validCommand(%q) = false for a listed command", c[0])
		}
	}
	for _, bad := range []string{"", "delegat", "DOMAIN", "status", "help", "--query"} {
		if validCommand(bad) {
			t.Errorf("validCommand(%q) = true, want false", bad)
		}
	}
	usage := commandUsage()
	for _, c := range commands {
		if !strings.Contains(usage, c[1]) {
			t.Errorf("usage text missing %q:\n%s", c[1], usage)
		}
	}
}

// TestUnknownCommandExits builds the binary and runs it with an unknown
// subcommand: it must print the usage summary to stderr and exit 2
// WITHOUT attempting a server connection (there is no server; a dial
// would fail with exit 1 instead).
func TestUnknownCommandExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "mbdctl")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-server", "127.0.0.1:1", "frobnicate")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected exit error, got %v\n%s", err, out)
	}
	if ee.ExitCode() != 2 {
		t.Fatalf("exit code = %d, want 2\n%s", ee.ExitCode(), out)
	}
	for _, want := range []string{`unknown command "frobnicate"`, "commands:", "domain status"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// No arguments at all: flag usage, exit 2.
	cmd = exec.Command(bin)
	out, err = cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("no-arg run: err=%v, want exit 2\n%s", err, out)
	}
}

// TestLintJSON pins the machine-readable lint contract: stable codes,
// severities and positions; [] not null for empty lists; pre-analysis
// failures carried in the per-file error field; exit codes matching the
// text mode (0 clean, 1 findings under -strict, 2 parse failure).
func TestLintJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "mbdctl")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	dir := t.TempDir()
	write := func(name, src string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	clean := write("clean.dpl", `func main() { return mibGet("1.3.6.1.2.1.1.3.0"); }`)
	warn := write("warn.dpl", `func main(oid) { return mibGet(oid); }`)
	broken := write("broken.dpl", `func main( {`)

	run := func(wantExit int, args ...string) []lintFile {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		if exit != wantExit {
			t.Fatalf("run %v: exit %d, want %d\n%s", args, exit, wantExit, out)
		}
		var rep []lintFile
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("run %v: invalid JSON: %v\n%s", args, err, out)
		}
		return rep
	}

	rep := run(0, "-json", "lint", clean, warn)
	if len(rep) != 2 {
		t.Fatalf("got %d records, want 2: %+v", len(rep), rep)
	}
	c := rep[0]
	if c.Error != "" || len(c.Diagnostics) != 0 {
		t.Fatalf("clean file not clean: %+v", c)
	}
	if len(c.Hosts) != 1 || c.Hosts[0] != "mibGet" ||
		len(c.Reads) != 1 || c.Reads[0] != "1.3.6.1.2.1.1.3.0" {
		t.Fatalf("clean effects = hosts %v reads %v", c.Hosts, c.Reads)
	}
	if c.Writes == nil {
		t.Fatal("empty writes marshalled as null, want []")
	}
	if c.CostSteps == 0 || c.Unbounded || c.StepBudget == 0 {
		t.Fatalf("clean cost = %+v", c)
	}
	w := rep[1]
	if len(w.Diagnostics) != 1 {
		t.Fatalf("warn diagnostics = %+v", w.Diagnostics)
	}
	d := w.Diagnostics[0]
	if d.Code != "DPL006" || d.Severity != "warning" || d.Line != 1 || d.Col == 0 || d.Msg == "" {
		t.Fatalf("warn diagnostic = %+v", d)
	}

	// -strict promotes the warning to a failing exit, findings intact.
	rep = run(1, "-strict", "-json", "lint", warn)
	if len(rep) != 1 || len(rep[0].Diagnostics) != 1 {
		t.Fatalf("strict rerun = %+v", rep)
	}

	// A parse failure still yields a JSON record (error field set,
	// analysis fields zero) and exit 2, without dropping later files.
	rep = run(2, "-json", "lint", broken, clean)
	if len(rep) != 2 {
		t.Fatalf("got %d records, want 2: %+v", len(rep), rep)
	}
	if rep[0].Error == "" || !strings.Contains(rep[0].Error, "expected identifier") {
		t.Fatalf("broken record error = %q", rep[0].Error)
	}
	if rep[0].Diagnostics == nil || rep[0].Hosts == nil {
		t.Fatalf("broken record has null lists: %+v", rep[0])
	}
	if rep[1].Error != "" {
		t.Fatalf("clean file after broken one reported %q", rep[1].Error)
	}
}

// TestTranslatorRulesCoded maps each Translator rule, and the parse
// error, to its code, line and column as two consumers see it: a
// delegating RDS client (rds.RejectError.Diags, which is also a
// *RemoteError) and `mbdctl lint -json` (a finding with exit 1; a parse
// error in the file's error field with exit 2).
func TestTranslatorRulesCoded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	rules := []struct {
		rule, src, code string
		line, col       int
	}{
		{"parse", "func main() {\n\tvar = 1;\n}", dpl.CodeParse, 2, 6},
		{"undeclared read", "func main() {\n\treturn y;\n}", dpl.CodeUndeclared, 2, 9},
		{"undeclared assignment", "func main() {\n\ty = 1;\n}", dpl.CodeUndeclared, 2, 2},
		{"unbound call", "func main() {\n\texec(\"/bin/sh\");\n}", dpl.CodeUnboundCall, 2, 2},
		{"arity", "func f(a) { return a; }\nfunc main() {\n\treturn f(1, 2);\n}", dpl.CodeArity, 3, 9},
		{"host arity", "func main() {\n\treturn len();\n}", dpl.CodeArity, 2, 9},
		{"break outside loop", "func main() {\n\tbreak;\n}", dpl.CodeLoopControl, 2, 2},
		{"continue outside loop", "func main() {\n\tcontinue;\n}", dpl.CodeLoopControl, 2, 2},
		{"redeclared variable", "func main() {\n\tvar x = 1;\n\tvar x = 2;\n\treturn x;\n}", dpl.CodeRedeclared, 3, 2},
		{"redefined function", "func main() {}\nfunc main() {}", dpl.CodeRedeclared, 2, 1},
		{"shadows a host function", "func len(s) { return 0; }\nfunc main() {}", dpl.CodeShadowsHost, 1, 1},
	}

	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = rds.NewServer(proc, nil).Serve(ctx, l)
	}()
	defer func() { cancel(); <-served }()
	c, err := rds.Dial(l.Addr().String(), "mgr")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bin := filepath.Join(t.TempDir(), "mbdctl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	for _, r := range rules {
		want := fmt.Sprintf("%d:%d: error[%s]", r.line, r.col, r.code)

		err := c.Delegate(ctx, "rule", r.src)
		var rej *rds.RejectError
		var remote *rds.RemoteError
		if !errors.As(err, &rej) || len(rej.Diags) == 0 || rej.Diags[0].Code != r.code || !errors.As(err, &remote) || remote.Msg != rej.Msg {
			t.Errorf("%s: RDS delegate = %v, want a RejectError with %s that is also a RemoteError", r.rule, err, r.code)
		} else if d := rej.Diags[0]; len(rej.Diags) != 1 || d.Line != int64(r.line) || d.Col != int64(r.col) || d.Severity != "error" {
			t.Errorf("%s: RDS diagnostics %v, want one %s", r.rule, rej.Diags, want)
		}

		file := filepath.Join(dir, strings.ReplaceAll(r.rule, " ", "_")+".dpl")
		if err := os.WriteFile(file, []byte(r.src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-json", "lint", file).Output()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		}
		var rep []lintFile
		if jerr := json.Unmarshal(out, &rep); jerr != nil || len(rep) != 1 {
			t.Fatalf("%s: lint -json: %v\n%s", r.rule, jerr, out)
		}
		if r.code == dpl.CodeParse {
			if exit != 2 || !strings.Contains(rep[0].Error, want) || len(rep[0].Diagnostics) != 0 {
				t.Errorf("%s: lint exit %d, record %+v; want exit 2 and an error field holding %q", r.rule, exit, rep[0], want)
			}
			continue
		}
		ds := rep[0].Diagnostics
		if exit != 1 || rep[0].Error != "" || len(ds) == 0 || ds[0].Code != r.code || ds[0].Severity != "error" || ds[0].Line != r.line || ds[0].Col != r.col {
			t.Errorf("%s: lint exit %d, findings %+v; want exit 1 and %s first", r.rule, exit, ds, want)
		}
	}
}

// TestWatchReportsDrops: when the event stream outruns watch, watch
// prints every event the client kept and, once the stream ends, how many
// it lost.
func TestWatchReportsDrops(t *testing.T) {
	srv, cli := net.Pipe()
	c := rds.NewClient(cli, "mgr")
	defer c.Close()
	// Each frame follows the one before on the connection, so it is
	// coded against that frame's last event.
	var last rds.Event
	for b := 0; b < 3; b++ {
		m := &rds.Message{Op: rds.OpEvent, Name: "flood#1", Entry: "report", Payload: []byte(fmt.Sprint(b * 100))}
		for i := 1; i < 100; i++ {
			m.Records = append(m.Records, rds.Event{DPI: "flood#1", Kind: "report", Payload: fmt.Sprint(b*100 + i)})
		}
		frame, err := m.AppendFrameAfter(nil, last)
		last = rds.Event{DPI: "flood#1", Kind: "report"}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.EventsDropped() < 44 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	var out, errOut strings.Builder
	watchEvents(c, &out, &errOut)
	if n := strings.Count(out.String(), "\n"); n != 256 {
		t.Fatalf("watch printed %d events, want 256", n)
	}
	if got := errOut.String(); !strings.HasPrefix(got, "44 events dropped") {
		t.Fatalf("watch stderr = %q, want the drop count 44", got)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, out)
	}
	return string(out)
}

// TestRunOverUDP: given -server udp://host:port, mbdctl speaks RDS
// datagrams, and delegate, instantiate and query all work through it.
func TestRunOverUDP(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = rds.NewServer(proc, nil).ServePacket(ctx, pc)
	}()
	defer func() { cancel(); <-served }()

	server := "udp://" + pc.LocalAddr().String()
	file := filepath.Join(t.TempDir(), "park.dpl")
	if err := os.WriteFile(file, []byte(`func main() { recv(-1); }`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctl := func(args ...string) string {
		return captureStdout(t, func() error { return run(server, "mgr", "", 10*time.Second, args) })
	}
	if out := ctl("delegate", "park", file); !strings.Contains(out, `delegated "park"`) {
		t.Fatalf("delegate printed %q", out)
	}
	id := strings.TrimSpace(ctl("instantiate", "park", "main"))
	if !strings.HasPrefix(id, "park") {
		t.Fatalf("instantiate printed %q, want a park instance id", id)
	}
	if out := ctl("query"); !strings.Contains(out, id) || !strings.Contains(out, "running") {
		t.Fatalf("query printed:\n%s\nwant %s running", out, id)
	}
}
