package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The one child-process launcher. A cluster owns a scratch directory (which
// is also every child's working directory, so the shm control socket can be
// named by a short relative path) and every process started in it; close
// tears all of it down, on the success path and on every error path alike.

// buildDir is where binaries, the go cache, scratch directories and traces
// live: inside the checkout, ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildBinaries compiles the repository's server binaries once into
// <root>/.bench_build/bin and reports how long that took (build_s — kept
// apart from setup_s, which starts at server launch).
func buildBinaries(root string) (binDir string, seconds float64, err error) {
	binDir = filepath.Join(buildDir(root), "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), pkgSMBServer, pkgSHMServe)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOCACHE="+goCache(root))
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build %s %s in %s: %w\n%s", pkgSMBServer, pkgSHMServe, root, err, out)
	}
	return binDir, time.Since(t0).Seconds(), nil
}

// goCache keeps the go build cache inside the checkout unless the caller
// (run.sh) already pointed it somewhere.
func goCache(root string) string {
	if v := os.Getenv("GOCACHE"); v != "" {
		return v
	}
	return filepath.Join(buildDir(root), "gocache")
}

type cluster struct {
	dir   string
	back  string // the harness's working directory before newCluster
	procs []*proc
	reaps sync.WaitGroup // one per started process: its reaper goroutine
}

// newCluster creates the scratch directory and moves the harness into it:
// the shm transport hands clients the socket path the server was given, so
// server, workers and the driver's own probe client must resolve the same
// relative name. A relative name keeps the path under the 108-byte unix
// socket limit however deep the checkout sits.
func newCluster(root string) (*cluster, error) {
	base := filepath.Join(buildDir(root), "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	back, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "c")
	if err != nil {
		return nil, err
	}
	if err := os.Chdir(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &cluster{dir: dir, back: back}, nil
}

// shmSocket is the control-socket name passed to smbserver -shm.
const shmSocket = "shm.sock"

type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been reaped
	err  error         // Wait's result; valid after done

	mu    sync.Mutex
	lines []string // stdout and stderr, line by line
	wake  chan struct{}
	pipes sync.WaitGroup
}

// start launches bin with args. The child dies with the harness (parent
// death signal) and is reaped by a goroutine that close waits for.
func (c *cluster) start(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = c.dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), wake: make(chan struct{}, 1)}
	c.procs = append(c.procs, p)
	for _, r := range []io.Reader{stdout, stderr} {
		p.pipes.Add(1)
		go p.collect(r)
	}
	c.reaps.Add(1)
	go func() {
		defer c.reaps.Done()
		p.pipes.Wait() // Wait closes the pipes; drain them first
		p.err = cmd.Wait()
		close(p.done)
		p.signal()
	}()
	return p, nil
}

func (p *proc) collect(r io.Reader) {
	defer p.pipes.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20) // a worker result line carries every iteration stamp
	for sc.Scan() {
		p.mu.Lock()
		p.lines = append(p.lines, sc.Text())
		p.mu.Unlock()
		p.signal()
	}
}

func (p *proc) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// match returns the first capture of re in the child's output so far.
func (p *proc) match(re *regexp.Regexp) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.lines {
		if m := re.FindStringSubmatch(l); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// waitLine waits until the child has printed a line matching pattern and
// returns its first capture group. A child that exits first is an error
// carrying its output.
func (p *proc) waitLine(pattern string, timeout time.Duration) (string, error) {
	re := regexp.MustCompile(pattern)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if v, ok := p.match(re); ok {
			return v, nil
		}
		select {
		case <-p.done:
			if v, ok := p.match(re); ok {
				return v, nil
			}
			if p.err != nil {
				return "", fmt.Errorf("%s exited before printing %q: %w:\n%s", p.name, pattern, p.err, p.output())
			}
			return "", fmt.Errorf("%s exited before printing %q:\n%s", p.name, pattern, p.output())
		default:
		}
		select {
		case <-p.wake:
		case <-p.done:
		case <-deadline.C:
			return "", fmt.Errorf("%s: no line matching %q within %s:\n%s", p.name, pattern, timeout, p.output())
		}
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// stop asks the child to exit (SIGTERM), escalates to SIGKILL, and returns
// once it has been reaped. A child that refuses SIGTERM is killed; that it
// had to be is reported.
func (p *proc) stop() error {
	select {
	case <-p.done:
		return nil
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return nil
	case <-time.After(3 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.done
	return fmt.Errorf("%s ignored SIGTERM and was killed", p.name)
}

// peakRSSMB is the process's peak resident set (VmHWM) while it is alive.
// The rusage a reaped child leaves behind is no substitute: its ru_maxrss
// starts from the parent's own high-water mark at fork time, so it would
// measure the harness.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("pid %d: VmHWM %q: %w", pid, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}

// stopWithRSS reads the child's peak RSS, then stops it.
func (p *proc) stopWithRSS() (float64, error) {
	mb, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	return mb, p.stop()
}

// close stops every child still running, newest first, and removes the
// scratch directory (socket included).
func (c *cluster) close() error {
	var errs []error
	for i := len(c.procs) - 1; i >= 0; i-- {
		if err := c.procs[i].stop(); err != nil {
			errs = append(errs, err)
		}
	}
	c.procs = nil
	c.reaps.Wait()
	if err := os.Chdir(c.back); err != nil {
		errs = append(errs, err)
	}
	if err := os.RemoveAll(c.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// lastLineWithPrefix returns the child's last output line starting with
// prefix, stripped of it.
func (p *proc) lastLineWithPrefix(prefix string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.lines) - 1; i >= 0; i-- {
		if rest, ok := strings.CutPrefix(p.lines[i], prefix); ok {
			return rest, true
		}
	}
	return "", false
}

// smbServer is a launched cmd/smbserver.
type smbServer struct {
	proc    *proc
	addr    string // SMB TCP endpoint
	metrics string // http://host:port/metrics
}

// startSMBServer launches smbserver on ephemeral ports, with the shm
// transport offered when shm is set.
func (c *cluster) startSMBServer(binDir string, shm bool) (*smbServer, error) {
	args := []string{flagServerAddr, "127.0.0.1:0", flagServerHTTP, "127.0.0.1:0", flagServerStats, "0"}
	if shm {
		args = append(args, flagServerShm, shmSocket)
	}
	p, err := c.start("smbserver", filepath.Join(binDir, "smbserver"), args...)
	if err != nil {
		return nil, err
	}
	addr, err := p.waitLine(reServerTCP, 10*time.Second)
	if err != nil {
		return nil, err
	}
	httpAddr, err := p.waitLine(reServerHTTP, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &smbServer{proc: p, addr: addr, metrics: "http://" + httpAddr + pathMetrics}, nil
}
