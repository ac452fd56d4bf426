package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServers compiles ./cmd/copshttp of the repository at repo and the
// reference server bench/refserver into out and returns both binaries'
// paths.
func buildServers(repo, out string) (bin, ref string, err error) {
	build := func(dir, pkg, name string) (string, error) {
		path := filepath.Join(out, name)
		cmd := exec.Command("go", "build", "-o", path, pkg)
		cmd.Dir = dir
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("build %s: %w", name, err)
		}
		return path, nil
	}
	if bin, err = build(repo, "./cmd/copshttp", "copshttp"); err != nil {
		return "", "", err
	}
	ref, err = build(filepath.Join(repo, "bench"), "./refserver", "refserver")
	return bin, ref, err
}

// lastKnownLargeFile is copshttp's -large-file-threshold default when this
// benchmark was written; the replay falls back to it only if the binary no
// longer lists the flag.
const lastKnownLargeFile = 1 << 20

// largeFileThreshold reads the default of copshttp's -large-file-threshold
// from the binary's usage text, so the replay sends a file down the same
// path the measured server does even after the default changes.
func largeFileThreshold(bin string) (int64, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 by design
	m := regexp.MustCompile(`-large-file-threshold int\n[^\n]*\(default (\d+)\)`).FindSubmatch(out)
	if m == nil {
		if bytes.Contains(out, []byte("-large-file-threshold")) {
			return 0, errors.New("copshttp -h: cannot read the -large-file-threshold default")
		}
		return lastKnownLargeFile, nil
	}
	return strconv.ParseInt(string(m[1]), 10, 64)
}

// server is one running copshttp process.
type server struct {
	cmd  *exec.Cmd
	pid  int
	port int
}

// startupLine matches the address a server prints once it is listening.
var startupLine = regexp.MustCompile(` on 127\.0\.0\.1:(\d+) \(`)

// startServer execs a server — copshttp with its defaults plus a loopback
// address on an ephemeral port and the generated document root, or
// refserver — and returns once its startup line has named the bound port.
func startServer(args []string) (*server, error) {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	// The server dies with the driver even if the driver is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(args[0]), err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid}
	hung := time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
	defer hung.Stop()
	r := bufio.NewReader(stdout)
	for {
		line, err := r.ReadString('\n')
		if m := startupLine.FindStringSubmatch(line); m != nil {
			s.port, _ = strconv.Atoi(m[1])
			return s, nil
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("%s exited before its startup line: %w", filepath.Base(args[0]), err)
		}
	}
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// procSample is a snapshot of a process's counters from /proc.
type procSample struct {
	cpuNs int64 // time on CPU, summed over threads
	syscr int64 // read-type syscalls
	syscw int64 // write-type syscalls
	ctxsw int64 // voluntary+involuntary context switches over all threads
}

func sampleProc(pid int) (procSample, error) {
	var p procSample
	var err error
	if p.cpuNs, err = cpuNs(pid); err != nil {
		return p, err
	}
	io, err := readKV(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return p, err
	}
	p.syscr, p.syscw = io["syscr"], io["syscw"]
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		st, err := readKV(fmt.Sprintf("/proc/%d/task/%s/status", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		p.ctxsw += st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"]
	}
	return p, nil
}

// cpuNs sums the first field of every thread's schedstat: nanoseconds
// on CPU. Unlike utime+stime, which /proc/<pid>/stat counts in 10 ms
// ticks, it resolves the CPU of one short window.
func cpuNs(pid int) (int64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := bytes.Fields(data)
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat: %w", err)
		}
		sum += ns
	}
	return sum, nil
}

// peakRSSBytes reads VmHWM, the process's resident-set high-water mark.
func peakRSSBytes(pid int) (int64, error) {
	st, err := readKV(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, ok := st["VmHWM"]
	if !ok {
		return 0, errors.New("no VmHWM in /proc status")
	}
	return kb << 10, nil
}

// readKV parses "key: value [unit]" lines into integers, skipping values
// that are not integers.
func readKV(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		fs := strings.Fields(v)
		if len(fs) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fs[0], 10, 64); err == nil {
			m[k] = n
		}
	}
	return m, nil
}

// hostCPU reads the aggregate line of /proc/stat: ticks stolen by the
// hypervisor and ticks in total.
func hostCPU() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user and nice.
	for i := 1; i <= 8 && i < len(f); i++ {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		total += n
		if i == 8 {
			steal = n
		}
	}
	return steal, total
}
