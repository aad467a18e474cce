package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The server under test is the shipped binary with its shipped flags. The
// harness adds nothing to it but addresses, a device name and one secret.
const (
	principal  = "mgr"
	secret     = "bench-s3cret"
	deviceName = "bench-router"
	community  = "public"
)

// userHZ is the unit of utime and stime in /proc/<pid>/stat. Linux reports
// them to user space in 1/100 s on every architecture.
const userHZ = 100

// buildServer compiles ./cmd/mbdserver at root into the build directory and
// returns the binary's path and how long the build took. The go build cache
// lives in the same directory (see run.sh), so only the first build in a
// checkout is cold.
func buildServer(root string) (string, time.Duration, error) {
	return goBuild(root, root, "./cmd/mbdserver", "mbdserver")
}

// goBuild runs go build for pkg inside dir, writing root/.bench_build/name.
func goBuild(root, dir, pkg, name string) (string, time.Duration, error) {
	out := filepath.Join(root, ".bench_build", name)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build %s: %w\n%s", pkg, err, stderr.String())
	}
	return out, time.Since(start), nil
}

// tailWriter counts every byte written to it and keeps the last few lines,
// so a server that dies mid-round can be reported with what it said last.
type tailWriter struct {
	mu    sync.Mutex
	bytes int64
	tail  []byte
}

const tailKeep = 4 << 10

func (w *tailWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bytes += int64(len(p))
	w.tail = append(w.tail, p...)
	if len(w.tail) > 2*tailKeep {
		w.tail = append(w.tail[:0], w.tail[len(w.tail)-tailKeep:]...)
	}
	return len(p), nil
}

func (w *tailWriter) count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

func (w *tailWriter) lastLines(n int) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	lines := strings.Split(strings.TrimRight(string(w.tail), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// server is one mbdserver child process.
type server struct {
	cmd      *exec.Cmd
	rdsAddr  string
	snmpAddr string
	traced   bool
	stderr   *tailWriter // nil on measured rounds: stderr goes to the null device
	startDur time.Duration

	exited chan struct{} // closed when the child has been reaped
	waitMu sync.Mutex
	waited error
}

// freeAddr returns a loopback address the kernel just handed out and
// released. Measured rounds discard the server's stderr, so the harness
// cannot learn a ":0" port from the log and picks the port itself.
func freeAddr(network string) (string, error) {
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer pc.Close()
		return pc.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs bin and returns once its RDS port accepts connections.
// mbdserver binds RDS last, so by then the SNMP agent is up too. A traced
// server also gets -obs and a counted stderr pipe; a measured one runs as an
// operator would run it unobserved.
func startServer(bin string, traced bool) (*server, error) {
	rdsAddr, err := freeAddr("tcp")
	if err != nil {
		return nil, err
	}
	snmpAddr, err := freeAddr("udp")
	if err != nil {
		return nil, err
	}
	args := []string{"-rds", rdsAddr, "-snmp", snmpAddr, "-name", deviceName,
		"-community", community, "-secret", principal + "=" + secret}
	s := &server{rdsAddr: rdsAddr, snmpAddr: snmpAddr, traced: traced, exited: make(chan struct{})}
	if traced {
		args = append(args, "-obs", "127.0.0.1:0")
		s.stderr = &tailWriter{}
	}
	s.cmd = exec.Command(bin, args...)
	if s.stderr != nil {
		s.cmd.Stderr = s.stderr
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		err := s.cmd.Wait()
		s.waitMu.Lock()
		s.waited = err
		s.waitMu.Unlock()
		close(s.exited)
	}()
	deadline := start.Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", rdsAddr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		select {
		case <-s.exited:
			return nil, s.died("during start-up")
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mbdserver not ready on %s after 10s: %v", rdsAddr, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.startDur = time.Since(start)
	return s, nil
}

// alive reports whether the child is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// died describes an unexpected exit, with the child's last stderr lines
// when the round kept them.
func (s *server) died(when string) error {
	s.waitMu.Lock()
	werr := s.waited
	s.waitMu.Unlock()
	msg := fmt.Sprintf("mbdserver exited %s: %v", when, werr)
	if s.stderr != nil {
		return fmt.Errorf("%s\nlast stderr lines:\n%s", msg, s.stderr.lastLines(12))
	}
	return errors.New(msg + " (measured round: stderr was sent to the null device)")
}

// stop asks the child to shut down, waits for it to be reaped and kills it
// if the graceful path takes longer than its drain grace should allow.
func (s *server) stop() {
	if !s.alive() {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpu returns the child's user plus system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis. utime and stime are fields 14
	// and 15, that is the 12th and 13th after it.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// cpuFine sums the on-CPU nanoseconds of the child's live threads from
// their schedstat files. It resolves far below a clock tick, which the
// idle window needs: an idle server uses a few milliseconds a second.
func (s *server) cpuFine() (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", s.cmd.Process.Pid)
	}
	var total int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// rssMB returns the child's resident set size in megabytes.
func (s *server) rssMB() (float64, error) {
	return rssOf(s.cmd.Process.Pid)
}

func rssOf(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", pid)
}

// selfCPU returns this process's user plus system CPU time, the
// generator's own cost.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
