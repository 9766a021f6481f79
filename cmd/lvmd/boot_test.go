package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

// proc is one daemon the boot test started, with its combined output.
type proc struct {
	cmd  *exec.Cmd
	out  *syncBuf
	done chan struct{}
	err  error // Wait's result, valid after done closes
}

func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), out: &syncBuf{}, done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill() //errgate:ok — the process may already have exited
		<-p.done
	})
	return p
}

// waitOut waits until the daemon's output contains want and returns the
// rest of that line.
func (p *proc) waitOut(t *testing.T, want string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := p.out.String()
		if i := strings.Index(s, want); i >= 0 {
			rest, _, _ := strings.Cut(s[i+len(want):], "\n")
			return rest
		}
		select {
		case <-p.done:
			t.Fatalf("%s exited (%v) before printing %q; output:\n%s", p.cmd.Path, p.err, want, s)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q; output:\n%s", want, s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v; output:\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestBinaryLeaseFailover is the soak's lease failover in miniature,
// black-box over real processes and loopback TCP: a -sync-replicas
// primary and a lease standby, lvmload traffic with a saved model, a
// SIGKILL of the primary, the standby promoting on lease expiry alone,
// a strict model replay against the promoted daemon, a clean drain, and
// `lvmd -check` over the promoted data directory.
func TestBinaryLeaseFailover(t *testing.T) {
	bin := t.TempDir()
	lvmdBin, loadBin := filepath.Join(bin, "lvmd"), filepath.Join(bin, "lvmload")
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	run(t, goBin, "build", "-o", lvmdBin, ".")
	run(t, goBin, "build", "-o", loadBin, "../lvmload")

	// -standby without a lease has no promotion trigger left.
	err := exec.Command(lvmdBin, "-standby", "-upstream", "127.0.0.1:1").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-standby without -lease-ms: err = %v, want exit status 2", err)
	}

	geometry := []string{"-shards", "2", "-slots", "32", "-slot-size", "1024", "-log-pages", "64"}
	withGeometry := func(args ...string) []string { return append(args, geometry...) }
	primary := startProc(t, lvmdBin, withGeometry("-addr", "127.0.0.1:0", "-dir", t.TempDir(),
		"-sync-replicas", "-lease-ms", "1000")...)
	addr := strings.Fields(primary.waitOut(t, "lvmd: serving on "))[0]
	standbyDir := t.TempDir()
	standby := startProc(t, lvmdBin, withGeometry("-standby", "-upstream", addr,
		"-addr", "127.0.0.1:0", "-dir", standbyDir, "-lease-ms", "1000")...)
	standby.waitOut(t, "lvmd: standby following ")

	// Every shard must be subscribed before the load: a commit acked with
	// no replica attached is not on the standby.
	cl, err := lvmd.DialClient(logship.TCPDialer(addr))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby subscriptions", func() bool {
		hs, err := cl.Stats()
		return err == nil && hs.Subscribers >= 2
	})
	cl.Close()

	model := filepath.Join(bin, "model.json")
	run(t, loadBin, "-addr", addr, "-clients", "8", "-segments", "8",
		"-duration", "1s", "-strict", "-model", model)
	if err := primary.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-primary.done

	standby.waitOut(t, "promoted at watermark")
	promoted := strings.Fields(standby.waitOut(t, "lvmd: serving on "))[0]
	run(t, loadBin, "-addr", promoted, "-replay", model, "-strict")
	if err := standby.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-standby.done
	if standby.err != nil {
		t.Fatalf("promoted drain: %v; output:\n%s", standby.err, standby.out.String())
	}
	if out := run(t, lvmdBin, withGeometry("-dir", standbyDir, "-check")...); !strings.Contains(out, "matches manifest") {
		t.Fatalf("lvmd -check did not verify the drain manifest:\n%s", out)
	}
}
