// Command lvmdbench measures lvmd's commit path. It drives the real
// cmd/lvmd binary, built from the checkout, over loopback TCP with an
// open-loop generator (one process, two connections, ops pipelined
// within each), checks every answer against an acked-state model, and
// — with -trace 1 — replays the same seed's op stream in-process through
// each layer's public functions with a span around every call.
//
// Run it from the repository root through its wrapper, which builds
// both binaries first:
//
//	bash lvmdbench/run.sh --workload commit-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as JSON; the line
// before it carries the host fingerprint, flags and sample counts. The
// exit code is nonzero if any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"lvm/internal/lvmd"
)

// metric is one reported figure and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "commit_p50_ms": "ms", "read_p50_ms": "ms", "write_amp": "ratio", "cpu_us_per_op": "us", "rss_mb": "MiB",
}

var perLayerUnits = map[string]string{
	"lvmd.commits_per_batch": "count", "lvmd.apply_ns_per_store": "ns",
	"lvmd.read_ns_per_op": "ns", "lvmd.fence_drain_us": "us", "lvmd.fence_tail_us": "us",
	"lvmd.tail_bytes_per_commit": "B",
	"logship.frame_encode_ns":    "ns", "logship.frame_decode_ns": "ns",
	"logship.frames_per_op": "count", "logship.flush_us": "us", "logship.ack_wait_us": "us",
	"logship.bytes_per_commit": "B",
	"compact.cycle_ms":         "ms", "compact.cycles_per_mb": "1/MB",
	"compact.snapshot_bytes_per_user_byte": "ratio",
	"recover.ms":                           "ms", "recover.records_per_s": "1/s",
	"gen.late_p99_ms": "ms", "trace.unaccounted_frac": "ratio",
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
		bin     = flag.String("lvmd", "", "lvmd binary built from this checkout")
		workdir = flag.String("workdir", ".bench_build", "directory for build outputs and run data")
	)
	flag.Parse()
	code := run(*name, *seed, *seconds, *trace == 1, *bin, *workdir)
	stopAll()
	os.Exit(code)
}

func run(name string, seed int64, seconds float64, trace bool, bin, workdir string) int {
	wl, ok := findWorkload(name)
	if !ok || bin == "" || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "lvmdbench: need -lvmd and -workload (one of %s)\n", workloadNames())
		return 2
	}
	base, err := filepath.Abs(filepath.Join(workdir, "runs",
		fmt.Sprintf("%s-s%d-t%v-%d", name, seed, trace, os.Getpid())))
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmdbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "lvmdbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(base)

	b := &bench{wl: wl, seed: seed, seconds: seconds, trace: trace, bin: bin, base: base,
		res: result{metrics: map[string]float64{}, detail: map[string]any{}}}
	b.res.detail["host"] = fingerprint(base)
	b.res.detail["lvmd_flags"] = strings.Join(b.primaryArgs(), " ")
	if wl.sync {
		b.res.detail["standby_flags"] = strings.Join(b.standbyArgs("<primary>"), " ")
	}
	b.res.detail["seed"] = seed
	b.res.detail["workload"] = name

	man, err := b.endToEnd()
	if err == nil && trace {
		err = b.traced(man, seconds)
	}
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmdbench: %s: %v\n", name, err)
		for _, p := range b.res.problems {
			fmt.Fprintf(os.Stderr, "lvmdbench: %s\n", p)
		}
		return 1
	}
	return b.report()
}

// traced adds the per-layer metrics: drain-manifest counters, recovery
// timings of the preload files, and the in-process replay.
func (b *bench) traced(man *lvmd.DrainReport, seconds float64) error {
	m := b.res.metrics
	commits := counter(man, "lvmd.commits")
	m["lvmd.commits_per_batch"] = commits / counter(man, "lvmd.batches")
	m["lvmd.tail_bytes_per_commit"] = counter(man, "lvmd.tail_bytes") / commits
	m["gen.late_p99_ms"] = b.res.detail["gen_late_p99_ms"].(float64)
	if err := b.recoverTimes(); err != nil {
		return err
	}
	return b.replay(m["lvmd.commits_per_batch"], time.Duration(0.4*seconds*float64(time.Second)))
}

// recoverTimes times lvmd.RecoverImage over every shard of the SIGKILLed
// preload directory, three times, and keeps the median.
func (b *bench) recoverTimes() error {
	dir := filepath.Join(b.base, "killed")
	var times []float64
	records := 0
	for k := 0; k < 3; k++ {
		var total time.Duration
		records = 0
		for i := 0; i < numShards; i++ {
			disk, err := lvmd.OpenFileDisk(filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", i)))
			if err != nil {
				return err
			}
			tail, err := lvmd.OpenTail(filepath.Join(dir, fmt.Sprintf("shard-%d.tail", i)))
			if err != nil {
				disk.Close()
				return err
			}
			cfg := b.coreConfig()
			cfg.Disk = disk
			t0 := time.Now()
			_, info, err := lvmd.RecoverImage(cfg, tail)
			total += time.Since(t0)
			disk.Close()
			tail.Close()
			if err != nil {
				return fmt.Errorf("recover shard %d: %w", i, err)
			}
			records += info.TailRecords
		}
		times = append(times, total.Seconds())
	}
	sec := median(times)
	b.res.metrics["recover.ms"] = sec * 1e3
	b.res.metrics["recover.records_per_s"] = float64(records) / sec
	b.res.detail["recover_tail_records"] = records
	return nil
}

// report prints the detail line and the result line, and returns the
// exit code.
func (b *bench) report() int {
	r := &b.res
	want := endToEndUnits
	if b.trace {
		want = perLayerUnits
	}
	out := map[string]metric{}
	for k, unit := range want {
		v, ok := r.metrics[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			b.problem("metric %s was not measured", k)
			continue
		}
		out[k] = metric{Value: v, Unit: unit}
	}
	r.detail["problems"] = r.problems
	d, _ := json.Marshal(r.detail)
	fmt.Println(string(d))
	correct := r.failed == 0
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, out})
	fmt.Println(string(res))
	if !correct {
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "lvmdbench: %s\n", p)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	sort.Strings(n)
	return strings.Join(n, ", ")
}

// fingerprint describes the host a run measured.
func fingerprint(dir string) map[string]any {
	fp := map[string]any{
		"nproc":          runtime.NumCPU(),
		"gen_gomaxprocs": runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
	}
	// lvmd inherits the environment: GOMAXPROCS if set, else nproc.
	fp["lvmd_gomaxprocs"] = os.Getenv("GOMAXPROCS")
	if fp["lvmd_gomaxprocs"] == "" {
		fp["lvmd_gomaxprocs"] = runtime.NumCPU()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				fp["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		fs := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
			0x58465342: "xfs", 0x9123683E: "btrfs"}[int64(st.Type)]
		if fs == "" {
			fs = fmt.Sprintf("0x%x", st.Type)
		}
		fp["data_fs"] = fs
	}
	fp["flush_policy"] = "tail pwrite+fsync per group-commit batch"
	return fp
}
