package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

// startProc launches bin with args, logging to logPath, and returns
// once the process is running (not yet healthy).
func startProc(name, bin, addr, logPath string, args []string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, so a signal aimed at the benchmark's group
	// (Ctrl-C) does not race the orderly shutdown below.
	// Pdeathsig kills the server if the benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the graceful drain, and falls back to
// SIGKILL; it returns only once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// freeAddr returns a loopback address with a port the kernel just
// handed out.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitReady polls url+path until it answers 200 and ok accepts the body,
// the process dies, or the deadline passes.
func waitReady(ctx context.Context, p *proc, path string, ok func([]byte) bool, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+path, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming ready: %v", p.name, p.err)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready at %s%s within %v", p.name, p.url, path, deadline)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// cluster is the set of processes serving one workload.
type cluster struct {
	procs []*proc
	// readURL receives reads: the server itself, or the router.
	readURL string
	// writeURL receives writes: the server itself, or the writer.
	writeURL string
	// servers are the hybridserve processes (RSS and CPU are summed over
	// them); writer and follower are set on replicated topologies.
	servers          []*proc
	writer, follower *proc
	router           *proc
}

func (c *cluster) stop() {
	// Reverse start order: router, follower, then writer.
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
}

// boot starts the workload's topology over the snapshot file and waits
// until every process is healthy (follower hydrated, router routing).
func boot(ctx context.Context, env *runEnv, w *Workload, snap, dir string) (*cluster, error) {
	c := &cluster{}
	start := func(name, bin string, args []string) (*proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := startProc(name, bin, addr, filepath.Join(dir, name+".log"), args)
		if err != nil {
			return nil, err
		}
		c.procs = append(c.procs, p)
		return p, nil
	}
	server := filepath.Join(env.binDir, "hybridserve")
	pinned := env.cfg.PinnedServerFlags
	healthy := func(p *proc) error { return waitReady(ctx, p, "/healthz", nil, 60*time.Second) }
	fail := func(err error) (*cluster, error) {
		c.stop()
		return nil, err
	}
	switch w.Topology {
	case "single":
		p, err := start("server", server, append([]string{"-snapshot", snap}, pinned...))
		if err != nil {
			return fail(err)
		}
		if err := healthy(p); err != nil {
			return fail(err)
		}
		c.servers = []*proc{p}
		c.readURL, c.writeURL = p.url, p.url
	case "replicated":
		wal := filepath.Join(dir, "wal")
		wr, err := start("writer", server, append([]string{"-snapshot", snap, "-waldir", wal}, pinned...))
		if err != nil {
			return fail(err)
		}
		if err := healthy(wr); err != nil {
			return fail(err)
		}
		// The follower hydrates synchronously at boot, so the writer must
		// already be serving.
		fo, err := start("follower", server, append([]string{"-hydrate", wr.url}, pinned...))
		if err != nil {
			return fail(err)
		}
		isFollower := func(b []byte) bool { return bytes.Contains(b, []byte(`"role":"follower"`)) }
		if err := waitReady(ctx, fo, "/replica/status", isFollower, 60*time.Second); err != nil {
			return fail(err)
		}
		rt, err := start("router", filepath.Join(env.binDir, "hybridrouter"), []string{"-replicas", fo.url})
		if err != nil {
			return fail(err)
		}
		if err := healthy(rt); err != nil {
			return fail(err)
		}
		c.servers = []*proc{wr, fo}
		c.writer, c.follower, c.router = wr, fo, rt
		c.readURL, c.writeURL = rt.url, wr.url
	default:
		return fail(fmt.Errorf("unknown topology %q", w.Topology))
	}
	return c, nil
}

// rssMB sums peak resident set size (VmHWM) over the server processes.
func (c *cluster) rssMB() (float64, error) {
	var kb float64
	for _, p := range c.servers {
		v, err := procStatusKB(p.pid(), "VmHWM:")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

func procStatusKB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// cpuSeconds sums user+system CPU time over the server processes.
func (c *cluster) cpuSeconds() (float64, error) {
	var total float64
	for _, p := range c.servers {
		v, err := procCPUSeconds(p.pid())
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(b[i+1:]))
	// After ')': state is field 3 of stat(5), utime 14, stime 15.
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var st cpuStat
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuStat{}, err
		}
		if i < 8 { // user..steal; guest time is already inside user
			st.total += x
		}
		if i == 7 {
			st.steal = x
		}
	}
	return st, nil
}

// stealPct is the share of CPU time the hypervisor gave to other
// guests since before: time this machine's benchmark could not run.
func (after cpuStat) stealPct(before cpuStat) float64 {
	if d := after.total - before.total; d > 0 {
		return (after.steal - before.steal) / d * 100
	}
	return 0
}
