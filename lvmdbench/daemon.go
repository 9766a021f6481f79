package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lvm/internal/lvmd"
)

// daemon is one lvmd process the benchmark started. Every daemon is
// stopped and waited for before the benchmark exits.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	addr   string
	exited chan struct{}
	err    error // Wait's result, valid after exited closes
	log    *os.File
}

var live = map[*daemon]bool{}

// startDaemon execs lvmd and waits until its banner says it is serving
// (for a standby: following). Its output goes to a log in dir's parent.
func startDaemon(bin, dir string, args []string) (*daemon, error) {
	args = append([]string{"-dir", dir}, args...)
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec lvmd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{}), log: logf}
	live[d] = true
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "lvmd: serving on "); ok {
				ready <- strings.Fields(a)[0]
			} else if strings.HasPrefix(line, "lvmd: standby following ") {
				ready <- ""
			}
		}
		_, _ = io.Copy(io.Discard, out) //errgate:ok — the pipe only needs draining
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-ready:
		return d, nil
	case <-d.exited:
		d.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("lvmd exited before serving: %v (see %s.log)", d.err, dir)
	case <-time.After(60 * time.Second):
		d.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("lvmd did not come up within 60s (see %s.log)", dir)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends sig and waits for exit, escalating to SIGKILL after 30
// seconds. It returns the process's exit error.
func (d *daemon) stop(sig syscall.Signal) error {
	if !live[d] {
		return d.err
	}
	_ = d.cmd.Process.Signal(sig) //errgate:ok — the process may already be gone; Wait tells
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() //errgate:ok — escalation; Wait below reports the outcome
		<-d.exited
	}
	delete(live, d)
	d.log.Close()
	return d.err
}

// stopAll kills every daemon still running (error paths).
func stopAll() {
	for d := range live {
		d.stop(syscall.SIGKILL)
	}
}

// procStat is a daemon's resource counters from /proc.
type procStat struct {
	cpu          time.Duration // utime + stime
	rchar, wchar int64
	hwmKB        int64
}

func readProc(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s on Linux).
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+2:]))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ps.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	if ps.rchar, err = procField(fmt.Sprintf("/proc/%d/io", pid), "rchar:"); err != nil {
		return ps, err
	}
	if ps.wchar, err = procField(fmt.Sprintf("/proc/%d/io", pid), "wchar:"); err != nil {
		return ps, err
	}
	ps.hwmKB, err = procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	return ps, err
}

// cpuSteal returns the host's stolen and total CPU ticks from
// /proc/stat (zeros if unreadable): time a hypervisor ran someone else
// on this machine's CPUs is noise no benchmark setting can remove.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func procField(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			return strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

func readManifest(dir string) (*lvmd.DrainReport, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	rep := &lvmd.DrainReport{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return rep, nil
}

// counter sums a simulation counter over every shard of a manifest.
func counter(rep *lvmd.DrainReport, name string) float64 {
	n := uint64(0)
	for _, sh := range rep.Shards {
		if sh.Metrics != nil {
			n += sh.Metrics.Counters[name]
		}
	}
	return float64(n)
}

// copyDir copies the regular files of src into a fresh dst, on disk.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(dst, e.Name()), b); err != nil {
			return err
		}
	}
	return nil
}

// writeSynced writes a file and fsyncs it, so a daemon started on the
// copy is not timed writing back the benchmark's own dirty pages.
func writeSynced(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
