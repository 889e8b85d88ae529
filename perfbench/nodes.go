package main

import (
	"bufio"
	"errors"
	"fmt"
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

// peerToken authenticates /peer/ingest between relay and analyzer.
const peerToken = "perfbench-peer-token"

// fleet is the node set a run drives: reports go to ingestURL (the
// combined node or the relay), models come from modelURL (the combined
// node or the analyzer). It is either real p2bnode processes or the same
// layout composed in-process (see compose.go).
type fleet struct {
	ingestURL string
	modelURL  string
	relay     bool

	procs []*exec.Cmd
	logs  []*os.File
	comp  *composition // in-process layout, nil for processes
}

// freePort reserves an ephemeral loopback port and releases it for the
// node to bind.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// nodeArgs are the p2bnode flags common to every role of a workload.
func nodeArgs(w workload, seed uint64, port int) []string {
	return []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-k", strconv.Itoa(codeSpace), "-arms", strconv.Itoa(arms), "-d", strconv.Itoa(ctxDim),
		"-threshold", strconv.Itoa(w.Threshold), "-batch", strconv.Itoa(w.Batch),
		"-seed", strconv.FormatUint(seed, 10),
	}
}

// launchProcesses starts the workload's p2bnode processes under dir and
// waits until each answers /healthz.
func launchProcesses(bin, dir string, w workload, seed uint64) (*fleet, error) {
	f := &fleet{relay: w.Topo == topoRelay}
	start := func(name string, args []string) error {
		logf, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			return err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			return fmt.Errorf("starting %s: %w", name, err)
		}
		f.procs = append(f.procs, cmd)
		f.logs = append(f.logs, logf)
		return nil
	}

	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := nodeArgs(w, seed, port)
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	switch w.Topo {
	case topoDurable:
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-wal-sync", "0", "-checkpoint-interval", "1s")
	case topoRelay:
		args = append(args, "-role", "analyzer", "-name", "analyzer-1", "-peer-token", peerToken)
	}
	if err := start("node", args); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	if err := waitHealthy(url); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.ingestURL, f.modelURL = url, url
	if w.Topo == topoRelay {
		rport, err := freePort()
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		rargs := append(nodeArgs(w, seed, rport),
			"-role", "relay", "-name", "relay-1", "-downstream", url, "-peer-token", peerToken,
			"-data-dir", filepath.Join(dir, "relay-data"), "-wal-sync", "25ms", "-checkpoint-interval", "1s")
		if err := start("relay", rargs); err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.ingestURL = fmt.Sprintf("http://127.0.0.1:%d", rport)
		if err := waitHealthy(f.ingestURL); err != nil {
			return nil, errors.Join(err, f.stop())
		}
	}
	return f, nil
}

// waitHealthy polls url/healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(20 * time.Second)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("node at %s not healthy after 20s", url)
}

// peakRSSMB sums the peak resident set (VmHWM) of the node processes.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		kb, err := vmHWM(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += float64(kb) / 1024
	}
	return total, nil
}

// usage is what the node processes have used so far: CPU seconds (user
// and system) and write system calls (write, writev, pwrite: to sockets
// and files alike). An in-process composition shares the benchmark's own
// process, so there it is that process's CPU time and no writes.
type usage struct{ cpu, writes float64 }

func (f *fleet) usage() usage {
	if f.comp != nil {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return usage{}
		}
		return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()}
	}
	var u usage
	for _, p := range f.procs {
		u.cpu += procCPU(p.Process.Pid)
		u.writes += writeCalls(p.Process.Pid)
	}
	return u
}

// writeCalls reads the syscw line of /proc/<pid>/io.
func writeCalls(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return 0
}

// procCPU is pid's CPU time from /proc/<pid>/stat: after the
// parenthesised command name, utime and stime are the 14th and 15th
// fields of the line, in USER_HZ (100) ticks.
func procCPU(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+2:]))
	if len(fields) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	return (ut + st) / 100
}

func vmHWM(pid int) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop shuts the fleet down: processes get SIGTERM (a graceful drain) and
// are killed if they outlive it; an in-process composition is closed.
func (f *fleet) stop() error {
	var errs []error
	// Relay first: its drain forwards the final batch to the analyzer.
	for i := len(f.procs) - 1; i >= 0; i-- {
		p := f.procs[i]
		if err := p.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			errs = append(errs, err)
		}
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("node exited: %w", err))
			}
		case <-time.After(15 * time.Second):
			_ = p.Process.Kill()
			<-done
			errs = append(errs, errors.New("node did not drain within 15s; killed"))
		}
	}
	for _, l := range f.logs {
		l.Close()
	}
	f.procs, f.logs = nil, nil
	if f.comp != nil {
		errs = append(errs, f.comp.close())
		f.comp = nil
	}
	return errors.Join(errs...)
}
