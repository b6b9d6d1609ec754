package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphquery/internal/server"
)

// maxLoadBytes is the daemon's -max-load-bytes: the 20 000-node upload is
// 4.5 MB, this leaves room to grow the graph without touching the flag.
const maxLoadBytes = 64 << 20

// target is a running query service the workload is driven against: a
// spawned gqserverd, or (-quick) an in-process httptest server.
type target struct {
	base string
	hc   *http.Client
	pid  int // 0 for an in-process target: no /proc accounting
	stop func() error
}

// moduleRoot finds the directory holding the graphquery go.mod, walking up
// from the working directory (go run starts in the root, go test in bench/).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module graphquery\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no graphquery go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/gqserverd from the checkout into outDir.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "gqserverd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gqserverd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gqserverd: %w\n%s", err, out)
	}
	return bin, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
}

// spawnDaemon starts gqserverd with its default flags plus a free port and
// the write surface, and returns once it has printed its address. Stderr
// (the daemon's structured log) goes to logPath.
func spawnDaemon(ctx context.Context, bin, logPath string) (*target, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0", "-mutable", "-max-load-bytes", strconv.Itoa(maxLoadBytes))
	cmd.Stderr = logf
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	t := &target{hc: newHTTPClient(), pid: cmd.Process.Pid}
	rd := bufio.NewReader(stdout)
	drained := make(chan struct{})
	t.stop = func() error {
		t.hc.CloseIdleConnections()
		_ = cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait reports it
		<-drained                               // Wait must not run before the stdout reads are done
		err := cmd.Wait()
		logf.Close()
		var exit *exec.ExitError
		if errors.As(err, &exit) && exit.ExitCode() == -1 {
			return nil // ended by our signal before its handler was installed
		}
		return err
	}
	line, err := rd.ReadString('\n')
	// The daemon prints two more lines while it shuts down; drain them so
	// it never blocks on a full pipe. Ends when the daemon closes stdout.
	go func() {
		_, _ = io.Copy(io.Discard, rd)
		close(drained)
	}()
	if err != nil {
		_ = t.stop()
		return nil, fmt.Errorf("gqserverd exited before listening (see %s): %w", logPath, err)
	}
	// "gqserverd: listening on http://127.0.0.1:PORT (graphs: bank)"
	i := strings.Index(line, "http://")
	if i < 0 {
		_ = t.stop()
		return nil, fmt.Errorf("unexpected gqserverd banner %q", line)
	}
	t.base = strings.Fields(line[i:])[0]
	return t, nil
}

// quickTarget serves the same handler in-process with the daemon's default
// configuration.
func quickTarget() *target {
	srv := server.New(daemonConfig())
	hs := httptest.NewServer(srv.Handler())
	t := &target{base: hs.URL, hc: newHTTPClient()}
	t.stop = func() error {
		t.hc.CloseIdleConnections()
		hs.Close()
		srv.Close()
		return nil
	}
	return t
}

// daemonConfig is gqserverd's flag defaults plus -mutable and
// -max-load-bytes, for the in-process targets.
func daemonConfig() server.Config {
	return server.Config{
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		MaxConcurrent:  16,
		MaxQueue:       64,
		MaxLen:         engineMaxLen,
		Mutable:        true,
		MaxLoadBytes:   maxLoadBytes,
	}
}

// post sends one JSON body and returns the reply body; any status other
// than want is an error carrying the reply.
func (t *target) post(ctx context.Context, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return t.roundTrip(req, want)
}

func (t *target) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return nil, err
	}
	return t.roundTrip(req, http.StatusOK)
}

func (t *target) roundTrip(req *http.Request, want int) ([]byte, error) {
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// load uploads the workload's graphs and waits for /v1/healthz.
func (t *target) load(ctx context.Context, w *workload) error {
	for _, bg := range w.graphs {
		if _, err := t.post(ctx, "/v1/graphs", bg.load, http.StatusCreated); err != nil {
			return err
		}
	}
	_, err := t.get(ctx, "/v1/healthz")
	return err
}

func (t *target) scrape(ctx context.Context) (promPage, error) {
	b, err := t.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(b))
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the utime+stime of pid (0: this process) in seconds.
func procCPU(pid int) (float64, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected %s: %q", path, b)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected %s: %q", path, b)
	}
	return (utime + stime) / clockTick, nil
}

// hostJiffies reads the machine's stolen and total CPU time from the first
// line of /proc/stat; zeros where there is none. On a virtual machine a
// high steal share means the host took the CPUs away mid-run, and the
// run's timings say more about the neighbours than about gqserverd.
func hostJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest times are
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the VmHWM (peak resident set) of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
