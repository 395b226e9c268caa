package bench

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// Transport microbenchmarks (DESIGN.md §16): the same two verbs — a bulk
// push (Write) and the WRITE+ACCUMULATE push — through each transport the
// SMB client can negotiate. tcp is the frame protocol (header+payload in
// one writev, replies landing in the caller's buffer), shm the
// cross-process mmap path where the verbs run as fused kernels against the
// mapped stripes.
//
// The server is a separate OS process (this binary re-exec'd via
// MaybeServeBenchChild), not an in-process goroutine: that is the real
// deployment topology — smbserver is its own binary — and it is what the
// message-passing transports are actually priced at. An in-process server
// shares the client's Go scheduler, so the producer/consumer alternation
// through the socket buffer costs a ~200ns goroutine switch instead of a
// process context switch, flattering tcp by >2x at 1MiB. The shm rows run
// the same topology (control socket to the child, SCM_RIGHTS fd pass,
// mapped data path), so both columns price the negotiated data path
// against a real peer process.

// transportSizes are the payload points: 64 KiB (one lock stripe), 1 MiB
// (the acceptance point: spans 16 stripes), 16 MiB (a
// full AlexNet-scale weight push, far out of cache).
var transportSizes = []struct {
	name  string
	bytes int
}{
	{"64KiB", 64 << 10},
	{"1MiB", 1 << 20},
	{"16MiB", 16 << 20},
}

// benchServeEnv marks a re-exec'd child as a bench server; its value is
// the serving mode ("tcp" or "shm").
const benchServeEnv = "SHMCAFFE_BENCH_SERVE"

// MaybeServeBenchChild turns this process into a bench SMB server when it
// was re-exec'd by transportClient (benchServeEnv set). Returns true if it
// served — the caller's main must then return without doing anything else.
// cmd/benchtables calls this before flag parsing.
func MaybeServeBenchChild() bool {
	mode := os.Getenv(benchServeEnv)
	if mode == "" {
		return false
	}
	if err := serveBenchChild(mode); err != nil {
		fmt.Fprintln(os.Stderr, "bench server child:", err)
		os.Exit(1)
	}
	return true
}

// serveBenchChild runs the server half of the transport benchmarks: an SMB
// server on loopback TCP, plus (mode "shm") a unix control socket with shm
// export enabled. It announces its endpoints on stdout as one
// "BENCHSRV <tcp-addr> <unix-path>" line, then serves until the parent
// closes our stdin — tying the child's lifetime to the parent's so a
// crashed benchmark run cannot leak server processes.
func serveBenchChild(mode string) error {
	store := smb.NewStore()
	sock := ""
	var dir string
	if mode == "shm" {
		if !smb.ShmSupported() {
			return fmt.Errorf("shm transport not supported on this platform/build")
		}
		if err := store.EnableShm(); err != nil {
			return err
		}
	}
	srv, err := smb.NewServer(store, "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve() //lint:ignore goleak joined by srv.Close via the server's WaitGroup
	if mode == "shm" {
		dir, err = os.MkdirTemp("", "shmbench")
		if err != nil {
			srv.Close()
			return err
		}
		defer os.RemoveAll(dir)
		sock = filepath.Join(dir, "smb.sock")
		uln, err := net.Listen("unix", sock)
		if err != nil {
			srv.Close()
			return err
		}
		defer uln.Close()
		srv.SetShmAddr(sock)
		go func() { //lint:ignore goleak accept loop exits when uln closes
			for {
				conn, err := uln.Accept()
				if err != nil {
					return
				}
				go srv.ServeConn(conn)
			}
		}()
	}
	fmt.Printf("BENCHSRV %s %s\n", srv.Addr(), sock)
	io.Copy(io.Discard, os.Stdin) // block until the parent exits or hangs up
	return srv.Close()
}

// spawnBenchServer re-execs this binary as a bench server child and parses
// its endpoint announcement. The returned stop function hangs up the
// child's stdin and reaps it (killing after a grace period).
func spawnBenchServer(mode string) (tcpAddr, unixSock string, stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", "", nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), benchServeEnv+"="+mode)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return "", "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", "", nil, err
	}
	stop = func() {
		stdin.Close() // child sees EOF and exits
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }() //lint:ignore goleak exits when the child is reaped — stdin EOF or the Kill below guarantees that
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stop()
		return "", "", nil, fmt.Errorf("bench server child announced nothing: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "BENCHSRV" {
		stop()
		return "", "", nil, fmt.Errorf("bench server child announced %q", strings.TrimSpace(line))
	}
	tcpAddr = fields[1]
	if len(fields) > 2 {
		unixSock = fields[2]
	}
	return tcpAddr, unixSock, stop, nil
}

// transportClient stands up a separate-process server and one connected
// client for the named transport. The cleanup tears down both.
func transportClient(transport string) (smb.Client, func(), error) {
	switch transport {
	case "tcp":
		addr, _, stop, err := spawnBenchServer("tcp")
		if err != nil {
			return nil, nil, err
		}
		c, err := smb.Dial(addr)
		if err != nil {
			stop()
			return nil, nil, err
		}
		return c, func() { c.Close(); stop() }, nil
	case "shm":
		if !smb.ShmSupported() {
			return nil, nil, nil
		}
		_, sock, stop, err := spawnBenchServer("shm")
		if err != nil {
			return nil, nil, err
		}
		if sock == "" {
			stop()
			return nil, nil, fmt.Errorf("bench server child announced no unix socket in shm mode")
		}
		c, err := smb.DialShm(sock)
		if err != nil {
			stop()
			return nil, nil, err
		}
		return c, func() { c.Close(); stop() }, nil
	default:
		return nil, nil, fmt.Errorf("unknown bench transport %q", transport)
	}
}

// transportKernelRows appends the transport/{tcp,shm} push and
// accumulate rows plus the cross-transport speedups at 1 MiB. quick trims
// the 16 MiB point and the repeat count.
func transportKernelRows(rep *KernelReport, quick bool) error {
	sizes := transportSizes
	if quick {
		sizes = transportSizes[:2]
	}
	// ns/op at 1 MiB per transport, for the speedup rows.
	push1M := map[string]float64{}
	acc1M := map[string]float64{}

	for _, transport := range []string{"tcp", "shm"} {
		c, cleanup, err := transportClient(transport)
		if err != nil {
			return err
		}
		if c == nil {
			// shm not supported on this platform/build: skip the rows rather
			// than emit numbers for a transport the host cannot negotiate.
			continue
		}
		for _, sz := range sizes {
			vals := sz.bytes / 4
			key, err := c.Create(fmt.Sprintf("bench/%s/wg/%s", transport, sz.name), sz.bytes)
			if err != nil {
				cleanup()
				return err
			}
			hg, err := c.Attach(key)
			if err != nil {
				cleanup()
				return err
			}
			kd, err := c.Create(fmt.Sprintf("bench/%s/dw/%s", transport, sz.name), sz.bytes)
			if err != nil {
				cleanup()
				return err
			}
			hd, err := c.Attach(kd)
			if err != nil {
				cleanup()
				return err
			}
			buf := make([]float32, vals)
			kernelFill(buf, 11)
			raw := tensor.Float32Bytes(buf)
			// The 16 MiB points are bandwidth-bound and stable; the smaller
			// points decide the acceptance ratios and get the benchMin
			// treatment against scheduler noise — min-of-5 at the 1 MiB
			// acceptance point, where a single steal-time spike in either
			// the numerator or denominator row would swing the committed
			// cross-transport ratios.
			reps := 3
			if sz.bytes == 1<<20 {
				reps = 5
			}
			if quick || sz.bytes >= 16<<20 {
				reps = 1
			}
			push := benchMin(reps, func(bb *testing.B) {
				bb.ReportAllocs()
				for i := 0; i < bb.N; i++ {
					if err := c.Write(hg, 0, raw); err != nil {
						bb.Fatal(err)
					}
				}
			})
			acc := benchMin(reps, func(bb *testing.B) {
				bb.ReportAllocs()
				for i := 0; i < bb.N; i++ {
					if err := c.WriteAccumulate(hg, hd, raw); err != nil {
						bb.Fatal(err)
					}
				}
			})
			rep.Results = append(rep.Results,
				benchResult(fmt.Sprintf("transport/%s/push/%s", transport, sz.name), int64(sz.bytes), push),
				benchResult(fmt.Sprintf("transport/%s/accumulate/%s", transport, sz.name), int64(sz.bytes), acc))
			if sz.bytes == 1<<20 {
				push1M[transport] = float64(push.T.Nanoseconds()) / float64(push.N)
				acc1M[transport] = float64(acc.T.Nanoseconds()) / float64(acc.N)
			}
		}
		cleanup()
	}

	if tcp, shm := acc1M["tcp"], acc1M["shm"]; tcp > 0 && shm > 0 {
		rep.Speedups["transport/shm_vs_tcp/accumulate/1MiB"] = tcp / shm
	}
	if tcp, shm := push1M["tcp"], push1M["shm"]; tcp > 0 && shm > 0 {
		rep.Speedups["transport/shm_vs_tcp/push/1MiB"] = tcp / shm
	}
	return nil
}
