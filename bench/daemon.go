package main

// daemon.go owns the mvcloudd child process: build it from source, start
// it on an ephemeral port, find the port in its log, and make sure it is
// gone on every way out of the benchmark.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot is where the vmcloud module lives: the benchmark is run with
// `go run -C bench .`, so its working directory is bench/.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mvcloudd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find cmd/mvcloudd from %s: run from the repository root (go run -C bench .) or from bench/", wd)
}

// buildDaemon compiles cmd/mvcloudd into <root>/.bench_build and
// returns the binary's path. The go build cache makes repeats cheap;
// compile time is never part of setup_s.
func buildDaemon(ctx context.Context) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	out := filepath.Join(root, ".bench_build", "mvcloudd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/mvcloudd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mvcloudd: %v\n%s", err, b)
	}
	return out, nil
}

// tailBuffer keeps the last few KB of the child's stderr for the report
// of an early exit or a panic.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	t.b = append(t.b, line...)
	t.b = append(t.b, '\n')
	if len(t.b) > 8192 {
		t.b = t.b[len(t.b)-8192:]
	}
	t.mu.Unlock()
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr tailBuffer
	// exited is closed once Wait has returned; waitErr is set before.
	exited  chan struct{}
	waitErr error
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// live tracks running children so that the signal handler and the
// watchdog can stop them from any goroutine.
var live struct {
	mu sync.Mutex
	ds map[*daemon]struct{}
}

func stopAllDaemons() {
	live.mu.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon launches bin on an ephemeral port and waits for its
// "listening on" log line and a 200 from /healthz.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	// The kernel kills the child if the benchmark dies without running
	// its own cleanup (SIGKILL from a driver's timeout).
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.mu.Lock()
	if live.ds == nil {
		live.ds = map[*daemon]struct{}{}
	}
	live.ds[d] = struct{}{}
	live.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			d.stderr.add(line)
			if !found {
				if m := listenLine.FindStringSubmatch(line); m != nil {
					found = true
					addrc <- m[1]
				}
			}
		}
		io.Copy(io.Discard, pipe)
		// Wait only after stderr is drained, as os/exec requires.
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.addr = <-addrc:
	case <-d.exited:
		d.forget()
		return nil, fmt.Errorf("mvcloudd exited before listening (%v); stderr:\n%s", d.waitErr, d.stderr.String())
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("mvcloudd did not log its address within 10s; stderr:\n%s", d.stderr.String())
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if d.dead() || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mvcloudd /healthz never answered 200 (last error %v); stderr:\n%s", err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) dead() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

func (d *daemon) forget() {
	live.mu.Lock()
	delete(live.ds, d)
	live.mu.Unlock()
}

// stop asks the child to drain (SIGTERM), kills it if it has not gone
// within 3s, and waits for it either way. It is safe to call twice.
func (d *daemon) stop() {
	defer d.forget()
	if d.dead() {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// crashed reports an exit the benchmark did not ask for, with the
// captured stderr (a panic trace ends up here).
func (d *daemon) crashed() error {
	if !d.dead() {
		return nil
	}
	return fmt.Errorf("mvcloudd exited during the run (%v); stderr:\n%s", d.waitErr, d.stderr.String())
}

// usage is the child's whole-life resource use, from its ProcessState.
type usage struct {
	cpu     time.Duration
	peakRSS float64 // MB
}

func (d *daemon) usage() (usage, error) {
	if !d.dead() {
		return usage{}, errors.New("daemon still running")
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, errors.New("no rusage for the child on this platform")
	}
	return usage{
		cpu:     d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime(),
		peakRSS: float64(ru.Maxrss) / 1024, // Linux reports KB
	}, nil
}

// cpuNow reads the running child's user+system CPU from /proc, so the
// measured window can be charged for its own CPU and not the warm-up's.
func (d *daemon) cpuNow() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

// procCPU parses utime+stime (fields 14 and 15, in 10ms ticks) from
// /proc/<pid>/stat. The command name may contain spaces, so fields are
// counted from the closing parenthesis.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	fs := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fs) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, b)
	}
	ut, err1 := strconv.ParseInt(fs[11], 10, 64)
	st, err2 := strconv.ParseInt(fs[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, b)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// selfUsage is the benchmark process's own CPU and peak RSS, for the
// workload that has no child.
func selfUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), peakRSS: float64(ru.Maxrss) / 1024}, nil
}
