// Command benchgate compares a candidate BENCH_lvm.json against the
// committed baseline and exits non-zero when the logged-store hot path
// regressed: ns/store more than -tolerance above baseline, or any
// allocation per store. CI runs it after regenerating the candidate with
// `lvmbench bench-json`; scripts/benchgate.sh is the wrapper.
//
// Usage:
//
//	benchgate [-tolerance 0.10] baseline.json candidate.json
//
// Parsing is deliberately tolerant: only the throughput section is read,
// so baselines written by older or newer schema revisions still gate as
// long as that section is present.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

// gateInput is the subset of the BENCH_lvm.json schema the gate needs.
// Extra fields in either file are ignored; missing ones are errors.
type gateInput struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Throughput struct {
		NsPerStore     *float64 `json:"ns_per_store"`
		AllocsPerStore *int64   `json:"allocs_per_store"`
	} `json:"logged_store_throughput"`
	// Fig7 is optional (older baselines predate the gate): when the
	// candidate recorded the sweep AND ran on enough cores with enough
	// workers, the parallel sweep must actually be parallel — a 0.99x
	// "speedup" on a 4-core runner means the worker pool is broken, and
	// silently accepting it hid exactly that for several revisions.
	Fig7 *struct {
		Workers   int      `json:"parallel_workers"`
		Speedup   *float64 `json:"speedup"`
		Identical *bool    `json:"output_identical"`
	} `json:"fig7_sweep_wallclock"`
	// Recovery is optional for the same schema-evolution reason: when
	// present, the parallel replay must recover the byte-identical image
	// on any host, and must hit its speedup floor at 4 workers on hosts
	// with at least minParallelCores cores.
	Recovery *struct {
		Workers []struct {
			Workers int     `json:"workers"`
			Speedup float64 `json:"speedup"`
		} `json:"workers"`
		Identical *bool `json:"output_identical"`
	} `json:"recovery"`
	// Compaction is optional (older baselines predate it): when the
	// candidate carries the section, its tail_growth — replayed records
	// at a 10x workload over 1x, compaction on — must stay bounded, or
	// checkpointed recovery has regressed to O(log length).
	Compaction *struct {
		TailGrowth *float64 `json:"tail_growth"`
	} `json:"compaction"`
	// Serving is optional (older baselines predate the daemon): when the
	// candidate ran the in-process lvmd fleet, every sent commit must
	// have been acknowledged (all_acked — the stall policy is not allowed
	// to drop), the drain must be clean, and the summed per-shard
	// counters must show live lvmd.commits instrumentation. Throughput
	// and latency stay informational: they are host-dependent.
	Serving *struct {
		AllAcked      *bool             `json:"all_acked"`
		DrainClean    *bool             `json:"drain_clean"`
		CommitsPerSec float64           `json:"commits_per_sec"`
		Counters      map[string]uint64 `json:"counters"`
	} `json:"serving"`
	// Failover is optional (older baselines predate it): when present,
	// promotion must have landed exactly at the acked watermark and the
	// server booted from it must pass its checks (promote_ok), every write acknowledged during the live migration
	// must read back through the post-cutover routes (acked_readable),
	// and the migration's stop-and-copy pause must stay bounded — the
	// chase phase exists precisely so the frozen window is a final
	// delta, not the whole copy.
	Failover *struct {
		PromoteOK      *bool    `json:"promote_ok"`
		AckedReadable  *bool    `json:"acked_readable"`
		MigratePauseMS *float64 `json:"migrate_pause_ms"`
	} `json:"failover"`
	Counters map[string]uint64 `json:"counters"`
}

// maxTailGrowth bounds the candidate's compaction tail_growth. The
// property is "flat as the log grows 10x"; 3.0 leaves room for the tail
// landing mid-interval in one run and near-empty in the other without
// ever admitting an O(log) regression (which reports ~10x).
const maxTailGrowth = 3.0

// Parallel wall-clock floors, enforced only when the candidate's recorded
// gomaxprocs (and, for fig7, its worker count) reaches minParallelCores —
// a 1-core container cannot speed anything up, and the recorded values,
// not the gate host's, decide, so the gate never lies about where the
// numbers came from.
const (
	minParallelCores    = 4
	minFig7Speedup      = 1.5
	minRecoverySpeedup  = 2.0
	recoveryGateWorkers = 4
)

// maxMigratePauseMS bounds the live-migration convergence pause. The
// stop-and-copy window only covers the post-freeze delta (at most
// chase-threshold writes), so even a loaded CI host finishes it in tens
// of milliseconds; a full second means the chase phase stopped doing its
// job and the cutover is copying the world while frozen.
const maxMigratePauseMS = 1000.0

// errNoBaseline distinguishes "nothing to gate against" (file absent or
// empty) from a malformed file. A fresh clone without a committed
// BENCH_lvm.json should get instructions, not a JSON parse error.
var errNoBaseline = errors.New("no baseline")

func load(path string) (*gateInput, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%s: %w (file not found)", path, errNoBaseline)
	}
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(buf)) == 0 {
		return nil, fmt.Errorf("%s: %w (file is empty)", path, errNoBaseline)
	}
	var in gateInput
	if err := json.Unmarshal(buf, &in); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if in.Throughput.NsPerStore == nil || in.Throughput.AllocsPerStore == nil {
		return nil, fmt.Errorf("%s: missing logged_store_throughput.ns_per_store/allocs_per_store", path)
	}
	if *in.Throughput.NsPerStore <= 0 {
		return nil, fmt.Errorf("%s: non-positive ns_per_store %g", path, *in.Throughput.NsPerStore)
	}
	return &in, nil
}

// gate returns the human-readable verdict lines and whether the candidate
// passes against the baseline at the given relative tolerance.
func gate(base, cand *gateInput, tolerance float64) (lines []string, ok bool) {
	ok = true
	bNs, cNs := *base.Throughput.NsPerStore, *cand.Throughput.NsPerStore
	ratio := cNs / bNs
	verdict := "ok"
	if ratio > 1+tolerance {
		verdict = fmt.Sprintf("FAIL (> +%.0f%%)", 100*tolerance)
		ok = false
	}
	lines = append(lines, fmt.Sprintf("ns/store: baseline %.2f candidate %.2f (%+.1f%%) %s",
		bNs, cNs, 100*(ratio-1), verdict))

	allocs := *cand.Throughput.AllocsPerStore
	verdict = "ok"
	if allocs > 0 {
		verdict = "FAIL (hot path must not allocate)"
		ok = false
	}
	lines = append(lines, fmt.Sprintf("allocs/store: candidate %d %s", allocs, verdict))

	switch {
	case cand.Fig7 == nil || cand.Fig7.Speedup == nil:
		lines = append(lines, "fig7: candidate has no sweep section (skipped)")
	case cand.Fig7.Identical != nil && !*cand.Fig7.Identical:
		lines = append(lines, "fig7 output: parallel sweep diverges from sequential FAIL")
		ok = false
	case cand.GOMAXPROCS < minParallelCores || cand.Fig7.Workers < minParallelCores:
		lines = append(lines, fmt.Sprintf("fig7 speedup: %.2fx at %d workers on %d cores (informational, < %d cores)",
			*cand.Fig7.Speedup, cand.Fig7.Workers, cand.GOMAXPROCS, minParallelCores))
	case *cand.Fig7.Speedup < minFig7Speedup:
		lines = append(lines, fmt.Sprintf("fig7 speedup: %.2fx at %d workers on %d cores FAIL (< %.1fx: worker pool not parallel)",
			*cand.Fig7.Speedup, cand.Fig7.Workers, cand.GOMAXPROCS, minFig7Speedup))
		ok = false
	default:
		lines = append(lines, fmt.Sprintf("fig7 speedup: %.2fx at %d workers ok", *cand.Fig7.Speedup, cand.Fig7.Workers))
	}

	switch {
	case cand.Recovery == nil:
		lines = append(lines, "recovery: candidate has no recovery section (skipped)")
	case cand.Recovery.Identical == nil || !*cand.Recovery.Identical:
		lines = append(lines, "recovery output: parallel replay diverges from sequential FAIL")
		ok = false
	default:
		speedup, found := 0.0, false
		for _, w := range cand.Recovery.Workers {
			if w.Workers == recoveryGateWorkers {
				speedup, found = w.Speedup, true
			}
		}
		switch {
		case !found:
			lines = append(lines, fmt.Sprintf("recovery: no %d-worker point FAIL", recoveryGateWorkers))
			ok = false
		case cand.GOMAXPROCS < minParallelCores:
			lines = append(lines, fmt.Sprintf("recovery speedup: %.2fx at %d workers on %d cores (informational, < %d cores)",
				speedup, recoveryGateWorkers, cand.GOMAXPROCS, minParallelCores))
		case speedup < minRecoverySpeedup:
			lines = append(lines, fmt.Sprintf("recovery speedup: %.2fx at %d workers on %d cores FAIL (< %.1fx)",
				speedup, recoveryGateWorkers, cand.GOMAXPROCS, minRecoverySpeedup))
			ok = false
		default:
			lines = append(lines, fmt.Sprintf("recovery speedup: %.2fx at %d workers ok", speedup, recoveryGateWorkers))
		}
	}

	switch {
	case cand.Compaction == nil || cand.Compaction.TailGrowth == nil:
		// Candidates written by older lvmbench revisions lack the
		// section; that's a skip, not a failure, like pre-counter
		// baselines below.
		lines = append(lines, "compaction: candidate has no tail_growth (skipped)")
	case *cand.Compaction.TailGrowth > maxTailGrowth:
		lines = append(lines, fmt.Sprintf("compaction tail growth: %.2fx FAIL (> %.1fx: recovery no longer bounded by checkpoint tail)",
			*cand.Compaction.TailGrowth, maxTailGrowth))
		ok = false
	default:
		lines = append(lines, fmt.Sprintf("compaction tail growth: %.2fx ok", *cand.Compaction.TailGrowth))
	}

	switch {
	case cand.Serving == nil || cand.Serving.AllAcked == nil:
		lines = append(lines, "serving: candidate has no serving section (skipped)")
	case !*cand.Serving.AllAcked:
		lines = append(lines, "serving: commits sent but not acknowledged FAIL (stall policy dropped work)")
		ok = false
	case cand.Serving.DrainClean != nil && !*cand.Serving.DrainClean:
		lines = append(lines, "serving drain: unclean FAIL")
		ok = false
	case cand.Serving.Counters["lvmd.commits"] == 0:
		lines = append(lines, "serving counters: lvmd.commits is zero FAIL (daemon metrics unwired?)")
		ok = false
	default:
		lines = append(lines, fmt.Sprintf("serving: all acked, clean drain, %.0f commits/s ok",
			cand.Serving.CommitsPerSec))
	}

	switch {
	case cand.Failover == nil || cand.Failover.PromoteOK == nil:
		lines = append(lines, "failover: candidate has no failover section (skipped)")
	case !*cand.Failover.PromoteOK:
		lines = append(lines, "failover promotion: watermark/boot check FAIL")
		ok = false
	case cand.Failover.AckedReadable == nil || !*cand.Failover.AckedReadable:
		lines = append(lines, "failover migration: acked writes not readable after cutover FAIL")
		ok = false
	case cand.Failover.MigratePauseMS != nil && *cand.Failover.MigratePauseMS > maxMigratePauseMS:
		lines = append(lines, fmt.Sprintf("failover migration pause: %.1fms FAIL (> %.0fms: cutover stops the world)",
			*cand.Failover.MigratePauseMS, maxMigratePauseMS))
		ok = false
	default:
		pause := 0.0
		if cand.Failover.MigratePauseMS != nil {
			pause = *cand.Failover.MigratePauseMS
		}
		lines = append(lines, fmt.Sprintf("failover: promotion exact, acked readable, %.1fms migration pause ok", pause))
	}

	// The candidate must prove instrumentation was live while it hit the
	// number above; an empty counter snapshot means the metrics layer was
	// compiled out or unwired. Baselines from before the counters field
	// existed are exempt from the comparison, not from the presence check.
	if len(cand.Counters) == 0 {
		lines = append(lines, "counters: candidate snapshot empty FAIL (metrics unwired?)")
		ok = false
	} else {
		lines = append(lines, fmt.Sprintf("counters: %d non-zero ok", len(cand.Counters)))
	}
	return lines, ok
}

func main() {
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative ns/store regression")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-tolerance 0.10] baseline.json candidate.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if errors.Is(err, errNoBaseline) {
		// Nothing to compare against: skip the gate rather than fail a
		// fresh branch, but say exactly how to establish a baseline.
		fmt.Printf("benchgate: %v\n", err)
		fmt.Println("benchgate: no committed baseline to gate against; skipping comparison")
		fmt.Println("benchgate: generate one with `lvmbench bench-json` and commit BENCH_lvm.json")
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cand, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	lines, ok := gate(base, cand, *tolerance)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		os.Exit(1)
	}
}
