package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

// bench is one benchmark run: a workload, a seed, and its working
// directory under the checkout's build directory.
type bench struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	bin     string // the lvmd binary built from this checkout
	base    string

	gen    *gen
	model  *model
	setups []float64 // seconds from exec to the first open reply, per restart
	res    result
}

const (
	setupsEach = 3 // restarts timed at each of a run's three points; setup_s is their median
	leaseMS    = 10000
	replyWait  = 20 * time.Second // grace for a phase's last replies
)

// result is what one run measured and checked.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	detail            map[string]any
}

// ungated records a figure the detail line reports by name and unit but
// BENCHMARK.json does not bound: tails and goodput. On the reference
// host their spread over ten seeds exceeded any allowed bound whenever
// the hypervisor stole a few percent of the CPUs, so gating them would
// fail on the host's weather rather than on lvmd.
func (b *bench) ungated(name string, v float64, unit string) {
	b.res.detail[name] = metric{Value: v, Unit: unit}
}

func (b *bench) problem(format string, a ...any) {
	b.res.failed++
	b.res.problems = append(b.res.problems, fmt.Sprintf(format, a...))
}

// account folds a phase's record into the run totals.
func (b *bench) account(phase string, rec *record, err error) {
	b.res.attempted += rec.attempted
	b.res.failed += rec.failed
	for _, e := range rec.errs {
		b.res.problems = append(b.res.problems, phase+": "+e)
	}
	if err != nil {
		b.problem("%s: %v", phase, err)
	}
}

// geometry is the daemon flags every workload shares.
func (b *bench) geometry() []string {
	return []string{"-shards", strconv.Itoa(numShards), "-slots", strconv.Itoa(slotsFlag),
		"-slot-size", strconv.Itoa(slotSize), "-log-pages", strconv.Itoa(logPages)}
}

// primaryArgs are the serving daemon's flags.
func (b *bench) primaryArgs() []string {
	args := append([]string{"-addr", "127.0.0.1:0"}, b.geometry()...)
	if b.wl.sync {
		args = append(args, "-sync-replicas", "-lease-ms", strconv.Itoa(leaseMS))
	}
	return args
}

func (b *bench) standbyArgs(upstream string) []string {
	args := append([]string{"-standby", "-upstream", upstream, "-addr", "127.0.0.1:0"}, b.geometry()...)
	return append(args, "-lease-ms", strconv.Itoa(leaseMS))
}

// endToEnd runs the four steps against the real daemon: preload and
// SIGKILL, timed restarts with an acked-model read-back, the measured
// phases, and a SIGTERM drain whose manifest is checked. It returns the
// drain manifest for the traced run.
func (b *bench) endToEnd() (*lvmd.DrainReport, error) {
	b.gen = newGen(b.wl, b.seed)
	b.model = newModel(b.seed)

	// 1. Preload with the workload's own write mix at half the ladder's
	// first rate, then SIGKILL.
	pre := filepath.Join(b.base, "preload")
	d, err := startDaemon(b.bin, pre, b.primaryArgs())
	if err != nil {
		return nil, err
	}
	f, err := dialFleet(logship.TCPDialer(d.addr), b.model)
	if err != nil {
		return nil, err
	}
	rec, err := f.run(b.gen.preload(b.wl.preload, b.wl.ladder[0]/2), replyWait)
	b.account("preload", rec, err)
	f.close()
	d.stop(syscall.SIGKILL)
	killed := filepath.Join(b.base, "killed")
	if err := copyDir(pre, killed); err != nil {
		return nil, err
	}

	// 2. Time restarts from the killed directory to the first open
	// reply; the last one keeps serving.
	srvDir := filepath.Join(b.base, "serve")
	if err := b.timeRestarts(setupsEach - 1); err != nil {
		return nil, err
	}
	if d, err = b.timedStart(srvDir); err != nil {
		return nil, err
	}

	f, err = dialFleet(logship.TCPDialer(d.addr), b.model)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rec, err = f.readBack(replyWait)
	b.account("read-back after SIGKILL restart", rec, err)

	var sd *daemon
	if b.wl.sync {
		sd, err = startDaemon(b.bin, filepath.Join(b.base, "standby"), b.standbyArgs(d.addr))
		if err != nil {
			return nil, err
		}
		defer sd.stop(syscall.SIGTERM)
		if err := waitSubscribed(d.addr); err != nil {
			return nil, err
		}
	}

	// 3. The measured phases, after the set-up's dirty pages are on disk
	// and a second of unmeasured (but checked) traffic at the nominal rate.
	syscall.Sync()
	rec, err = f.run(b.gen.schedule(int(b.wl.rate), b.wl.rate, b.wl.readFrac), replyWait)
	b.account("warm-up", rec, err)
	nomSec := 0.5 * b.seconds
	if b.trace {
		nomSec = 0.3 * b.seconds
	}
	pids := []int{d.pid()}
	if sd != nil {
		pids = append(pids, sd.pid())
	}
	before, err := readProcs(pids)
	if err != nil {
		return nil, err
	}
	rx0 := f.rxBytes()
	steal0, total0 := cpuSteal()
	nominal, err := f.run(b.gen.schedule(int(b.wl.rate*nomSec), b.wl.rate, b.wl.readFrac), replyWait)
	b.account("nominal", nominal, err)
	after, err := readProcs(pids)
	if err != nil {
		return nil, err
	}
	b.nominalMetrics(nominal, before, after, f.rxBytes()-rx0)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		b.res.detail["nominal_cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}

	if err := b.timeRestarts(setupsEach); err != nil {
		return nil, err
	}

	reads := nominal.readLat
	if b.wl.readFrac == 0 {
		// Commit-only mixes read nothing at their nominal rate; their
		// read latency is a fixed-rate probe of 4-word reads, each
		// checked against the model, right after the nominal phase.
		probe, err := f.run(b.gen.schedule(int(probeRate*0.1*b.seconds), probeRate, 1), replyWait)
		b.account("read probe", probe, err)
		reads = probe.readLat
	}
	b.latency("read", reads)

	if !b.trace {
		b.ungated("goodput_ops_s", b.ladder(f, acrossWindows(nominal.all(), 0.95, 0.5)), "ops/s")
	}

	rec, err = f.readBack(replyWait)
	b.account("final read-back", rec, err)
	f.close()

	// 4. SIGTERM drains; the manifest must say so and the host must
	// have killed and refused nothing.
	if err := d.stop(syscall.SIGTERM); err != nil {
		b.problem("lvmd drain exited with %v", err)
	}
	man, err := readManifest(srvDir)
	if err != nil {
		return nil, err
	}
	if !man.Drained {
		b.problem("drain manifest says drained: false")
	}
	if h := man.Host; h.KilledStall+h.KilledDrop+h.BadFrames > 0 {
		b.problem("host stats: killed_stall %d killed_drop %d bad_frames %d",
			h.KilledStall, h.KilledDrop, h.BadFrames)
	}
	for i, sh := range man.Shards {
		if sh.Demoted || sh.Error != "" {
			b.problem("shard %d: demoted %v error %q", i, sh.Demoted, sh.Error)
		}
	}
	if sd != nil {
		// Stopped first: the restarts below must not become its upstream.
		sd.stop(syscall.SIGTERM)
	}
	if err := b.timeRestarts(setupsEach); err != nil {
		return nil, err
	}
	b.res.metrics["setup_s"] = median(b.setups)
	b.res.detail["setup_s_each"] = b.setups
	return man, nil
}

// timedStart starts lvmd on a fresh copy of the SIGKILLed preload
// directory and records the time from exec to the first successful open
// reply. The daemon is left serving.
func (b *bench) timedStart(dir string) (*daemon, error) {
	if err := copyDir(filepath.Join(b.base, "killed"), dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := startDaemon(b.bin, dir, b.primaryArgs())
	if err != nil {
		return nil, err
	}
	cl, err := lvmd.DialClient(logship.TCPDialer(d.addr))
	if err == nil {
		_, err = cl.Open(1)
		cl.Close()
	}
	if err != nil {
		d.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("first open after restart: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return d, nil
}

// timeRestarts times n restarts that only measure: each daemon is killed
// after its first open reply. The benchmark times them at the start, in
// the middle and at the end of a run, while no other daemon is busy, so
// setup_s samples the host over the whole run and not one moment of it.
func (b *bench) timeRestarts(n int) error {
	for k := 0; k < n; k++ {
		d, err := b.timedStart(filepath.Join(b.base, "setup"))
		if err != nil {
			return err
		}
		d.stop(syscall.SIGKILL)
	}
	return nil
}

func readProcs(pids []int) ([]procStat, error) {
	out := make([]procStat, len(pids))
	for i, p := range pids {
		var err error
		if out[i], err = readProc(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// waitSubscribed waits until the standby has a subscription per shard.
func waitSubscribed(addr string) error {
	cl, err := lvmd.DialClient(logship.TCPDialer(addr))
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		hs, err := cl.Stats()
		if err != nil {
			return err
		}
		if hs.Subscribers >= numShards {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby subscribed %d of %d shards in 30s", hs.Subscribers, numShards)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// latency reports a kind's p50 and p95, each the lower quartile over
// the phase's windows (acrossWindows), and the phase-wide exact p99
// with its sample count. Only the p50 is gated (see ungated).
func (b *bench) latency(kind string, samples []sample) {
	b.res.metrics[kind+"_p50_ms"] = acrossWindows(samples, 0.5, 0.25)
	b.ungated(kind+"_p95_ms", acrossWindows(samples, 0.95, 0.25), "ms")
	s := sortedMS(latencies(samples))
	lvl := tailLevel(len(s))
	b.ungated(kind+"_p99_ms", quantile(s, lvl), "ms")
	b.res.detail[kind+"_p99_level"] = lvl
	b.res.detail[kind+"_samples"] = len(s)
	b.res.detail[kind+"_windows"] = len(windowed(samples))
}

func (b *bench) nominalMetrics(rec *record, before, after []procStat, rx int64) {
	b.latency("commit", rec.commitLat)
	done := len(rec.commitLat) + len(rec.readLat)
	var cpu time.Duration
	for i := range before {
		cpu += after[i].cpu - before[i].cpu
	}
	b.res.metrics["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(done)
	// Socket writes are protocol, not storage. The generator counts every
	// reply byte it received, and a standby reads nothing but the
	// primary's log stream, so both are taken out.
	written := after[0].wchar - before[0].wchar - rx
	for i := 1; i < len(before); i++ {
		written -= after[i].rchar - before[i].rchar
	}
	b.res.metrics["write_amp"] = float64(written) / float64(rec.userBytes)
	b.res.metrics["rss_mb"] = float64(after[0].hwmKB) / 1024
	b.res.detail["nominal_ops"] = done
	b.res.detail["nominal_user_bytes"] = rec.userBytes
	late := sortedMS(rec.late)
	b.res.detail["gen_late_p99_ms"] = quantile(late, tailLevel(len(late)))
}

// ladder offers the workload's rate steps in order, starting from the
// nominal phase's point, until one misses the limit on the all-ops p95
// (the median over the step's windows). It returns the rate at which
// the p95 crosses the limit, interpolated in log-latency between the
// last point that met it and the first that did not. Failed ops count
// as missing the limit. A growing backlog shows as rising latency
// because every op is timed from its due time.
func (b *bench) ladder(f *fleet, nominalP95 float64) float64 {
	step := 0.4 * b.seconds / float64(len(b.wl.ladder))
	type point struct{ rate, p95 float64 }
	// The nominal phase is the ladder's first point.
	pts := []point{{b.wl.rate, nominalP95}}
	for _, rate := range b.wl.ladder {
		if pts[len(pts)-1].p95 > limitMS {
			break
		}
		rec, err := f.run(b.gen.schedule(int(rate*step), rate, b.wl.readFrac), replyWait)
		b.account(fmt.Sprintf("ladder %.0f/s", rate), rec, err)
		t := math.Inf(1)
		if rec.failed == 0 && err == nil {
			t = acrossWindows(rec.all(), 0.95, 0.5)
		}
		pts = append(pts, point{rate, t})
	}
	steps := make([][2]float64, len(pts))
	for i, p := range pts {
		steps[i] = [2]float64{p.rate, p.p95}
	}
	b.res.detail["ladder_rate_p95_ms"] = steps
	last := pts[len(pts)-1]
	if last.p95 <= limitMS {
		b.res.detail["ladder_capped"] = true
		return last.rate
	}
	if len(pts) == 1 {
		// The nominal rate itself misses the limit: scale down from it.
		return last.rate * limitMS / last.p95
	}
	lo := pts[len(pts)-2]
	if math.IsInf(last.p95, 1) {
		return lo.rate
	}
	frac := (math.Log(limitMS) - math.Log(lo.p95)) / (math.Log(last.p95) - math.Log(lo.p95))
	return lo.rate + frac*(last.rate-lo.rate)
}
