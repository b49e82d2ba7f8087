package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one launched aongate or aonback process.
type proc struct {
	cmd     *exec.Cmd
	addr    string        // bound listen address, from its startup line
	stderr  bytes.Buffer  // everything after the startup line, for errors
	drained chan struct{} // closed when stderr reaches EOF
}

// startProc launches bin with args and waits for its "listening on"
// stderr line, which names the bound address (the benchmark always
// passes port 0).
func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), drained: make(chan struct{})}
	p.cmd.Stdout = io.Discard
	// Should the benchmark itself be killed, its servers die with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	br := bufio.NewReader(pipe)
	addrc := make(chan string, 1)
	go func() {
		defer close(p.drained)
		for {
			line, err := br.ReadString('\n')
			if p.addr == "" {
				if a, ok := listenAddr(line); ok {
					p.addr = a
					addrc <- a
					continue
				}
			}
			if p.stderr.Len() < 64<<10 {
				p.stderr.WriteString(line)
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case <-addrc:
		return p, nil
	case <-p.drained:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", filepath.Base(bin), strings.TrimSpace(p.stderr.String()))
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 10s", filepath.Base(bin))
	}
}

// listenAddr extracts the address from a startup line such as
// "aongate: listening on 127.0.0.1:40017 (usecase=FR …)" or
// "aonback: order endpoint listening on 127.0.0.1:40019 (…)".
func listenAddr(line string) (string, bool) {
	const key = "listening on "
	i := strings.Index(line, key)
	if i < 0 {
		return "", false
	}
	f := strings.Fields(line[i+len(key):])
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

// stop sends SIGTERM, waits for the process (and its stderr reader) to
// end, and kills it if it has not exited within 10s.
func (p *proc) stop() error {
	if p.cmd.Process == nil {
		return nil
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	err := p.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.Exited() {
		return fmt.Errorf("%s exited with %d: %s", filepath.Base(p.cmd.Path), ee.ExitCode(), strings.TrimSpace(p.stderr.String()))
	}
	if err != nil && !errors.As(err, &ee) {
		return err
	}
	return nil
}

// procSample is one reading of a process's cumulative counters.
type procSample struct {
	cpu      time.Duration // user + system
	syscalls uint64        // syscr + syscw
	hwmKB    uint64        // peak resident set (VmHWM)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseStatCPU(stat); err != nil {
		return s, err
	}
	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	if s.syscalls, err = parseIOSyscalls(io); err != nil {
		return s, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.hwmKB, err = parseStatusKB(status, "VmHWM")
	return s, err
}

// parseStatCPU returns utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseIOSyscalls returns syscr+syscw from /proc/<pid>/io.
func parseIOSyscalls(b []byte) (uint64, error) {
	var sum uint64
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || (k != "syscr" && k != "syscw") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc io %s: %w", k, err)
		}
		sum += n
		found++
	}
	if found != 2 {
		return 0, errors.New("proc io: syscr/syscw missing")
	}
	return sum, nil
}

// parseStatusKB returns the named "<key>: <n> kB" field of
// /proc/<pid>/status.
func parseStatusKB(b []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		v = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status %s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("proc status: %s missing", key)
}

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat, in
// clock ticks: all time, and the part the hypervisor ran other guests
// (steal).
type hostCPU struct{ total, steal uint64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(b)
}

func parseHostCPU(b []byte) (hostCPU, error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("proc stat: no aggregate cpu line")
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: %w", err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user/nice.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// stealShare is the share of host CPU time stolen between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
