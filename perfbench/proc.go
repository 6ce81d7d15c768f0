package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one child process: cmd/swserve or the reference server.
type server struct {
	cmd        *exec.Cmd
	base       string // http://127.0.0.1:port
	pid        int
	ready      time.Duration // process start to the first GET /healthz 200
	stderrDone chan struct{}
	stderr     *tailBuffer
	usage      *syscall.Rusage // set by stop
}

var (
	liveMu      sync.Mutex
	liveServers = map[*server]bool{}
)

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clkTck = 100

// startServer launches swserve with args plus an -addr.
func startServer(bin string, args []string) (*server, error) {
	return startChild(func(addr string) *exec.Cmd {
		return exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	})
}

// startRefServer launches the reference server (this binary, -refserve)
// with its log at logPath.
func startRefServer(logPath string) (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startChild(func(addr string) *exec.Cmd {
		return exec.Command(self, "-refserve", addr, "-reflog", logPath)
	})
}

// startChild starts command(addr) on a free loopback address and returns
// once GET /healthz answers 200. It waits for the child's own
// "serving"/"resuming" line on stderr before polling, so a long recovery
// is not slowed by a polling loop on the other vCPU.
func startChild(command func(addr string) *exec.Cmd) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := command(addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS()))
	cmd.Stdout = io.Discard
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, stderrDone: make(chan struct{}), stderr: &tailBuffer{}}
	listening := make(chan struct{})
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	s.pid = cmd.Process.Pid
	liveMu.Lock()
	liveServers[s] = true
	liveMu.Unlock()
	go func() {
		defer close(s.stderrDone)
		sc := bufio.NewScanner(pipe)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			s.stderr.add(line)
			if !signalled && (strings.Contains(line, ": serving") || strings.Contains(line, "swserve: resuming")) {
				signalled = true
				close(listening)
			}
		}
	}()
	select {
	case <-listening:
	case <-s.stderrDone:
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("%s exited during start-up: %s", cmd.Path, s.stderr.String())
	case <-time.After(120 * time.Second):
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("%s not listening after 120s: %s", cmd.Path, s.stderr.String())
	}
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop(syscall.SIGKILL)
			return nil, fmt.Errorf("%s /healthz not 200 after 30s: %v %s", cmd.Path, err, s.stderr.String())
		}
		time.Sleep(50 * time.Microsecond)
	}
	s.ready = time.Since(start)
	return s, nil
}

// stop signals the child, waits for it to exit and records its resource
// usage. SIGKILL is the crash the durability contract covers; SIGTERM is
// the graceful shutdown.
func (s *server) stop(sig syscall.Signal) {
	liveMu.Lock()
	live := liveServers[s]
	delete(liveServers, s)
	liveMu.Unlock()
	if !live {
		return
	}
	_ = s.cmd.Process.Signal(sig)
	if sig != syscall.SIGKILL {
		select {
		case <-s.stderrDone:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
		}
	}
	<-s.stderrDone
	_ = s.cmd.Wait()
	if s.cmd.ProcessState != nil {
		if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.usage = ru
		}
	}
}

// cpuSeconds is the child's user+sys CPU time so far, from /proc (10 ms
// resolution).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	str := string(b)
	i := strings.LastIndexByte(str, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.pid)
	}
	f := strings.Fields(str[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", s.pid)
	}
	return float64(ut+st) / clkTck, nil
}

// peakRSSMiB is the child's peak resident set (VmHWM) so far.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.pid)
}

// usageCPUSeconds reads the rusage recorded by stop.
func (s *server) usageCPUSeconds() float64 {
	if s.usage == nil {
		return 0
	}
	return time.Duration(s.usage.Utime.Nano() + s.usage.Stime.Nano()).Seconds()
}

// stopAllServers kills every child still running; it runs on every exit
// path so no swserve outlives the benchmark.
func stopAllServers() {
	liveMu.Lock()
	all := make([]*server, 0, len(liveServers))
	for s := range liveServers {
		all = append(all, s)
	}
	liveMu.Unlock()
	for _, s := range all {
		s.stop(syscall.SIGKILL)
	}
}

// stopOnSignal kills the children and removes the run's scratch directory
// when the benchmark itself is interrupted.
func stopOnSignal(runDir string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		stopAllServers()
		_ = os.RemoveAll(runDir)
		os.Exit(2)
	}()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func serverGOMAXPROCS() int { return runtime.NumCPU() }

// tailBuffer keeps the last lines a child wrote to stderr, for errors.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// copyDir copies a flat state directory (snapshots and WALs).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// environment is the block printed before the result: the machine, the
// toolchain, the code under test and the exact server flags.
func environment(cfg config, serverFlags []string) map[string]any {
	return map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds,
		"trace":                cfg.trace,
		"cpu_model":            cpuModel(),
		"nproc":                runtime.NumCPU(),
		"server_gomaxprocs":    serverGOMAXPROCS(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version":           runtime.Version(),
		"goos_goarch":          runtime.GOOS + "/" + runtime.GOARCH,
		"git_commit":           gitCommit(),
		"source_sha256":        sourceDigest(),
		"swserve_flags":        strings.Join(serverFlags, " "),
		"host_steal_pct":       stealPct(),
	}
}

// startTotal and startSteal are the machine's CPU ticks when the
// benchmark started.
var startTotal, startSteal = cpuTimes()

// cpuTimes reads the aggregate line of /proc/stat: total ticks and the
// steal ticks (time the hypervisor ran something else on our vCPUs).
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealPct is the share of CPU time stolen by the hypervisor since the
// benchmark started: a noisy neighbour shows here.
func stealPct() float64 {
	total, steal := cpuTimes()
	if total <= startTotal {
		return 0
	}
	return float64(steal-startSteal) / float64(total-startTotal) * 100
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitCommit is HEAD when the checkout is a git work tree, else "none";
// source_sha256 identifies the code either way.
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	// Stop git at the checkout: a checkout that is not a work tree must not
	// pick up a repository above it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(checkoutRoot()))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under the checkout (the
// build output directory excluded), in path order.
func sourceDigest() string {
	root := checkoutRoot()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", relToRoot(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
