package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"lvm/internal/core"
	"lvm/internal/experiments"
	"lvm/internal/fault"
	"lvm/internal/recovery"
	"lvm/internal/sim"
)

// benchReport is the schema of BENCH_lvm.json: the repository's host-side
// performance baseline. It records how fast the simulator itself runs, not
// any simulated quantity — simulated cycles are pinned by the tests.
type benchReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Throughput struct {
		NsPerStore     float64 `json:"ns_per_store"`
		AllocsPerStore int64   `json:"allocs_per_store"`
		BytesPerStore  int64   `json:"bytes_per_store"`
		StoresPerSec   float64 `json:"stores_per_sec"`
	} `json:"logged_store_throughput"`

	Fig7 struct {
		Events        int     `json:"events_per_point"`
		Workers       int     `json:"parallel_workers"`
		SequentialSec float64 `json:"sequential_sec"`
		ParallelSec   float64 `json:"parallel_sec"`
		Speedup       float64 `json:"speedup"`
		Identical     bool    `json:"output_identical"`
	} `json:"fig7_sweep_wallclock"`

	// Compaction pins the bounded-recovery property: replayed records at
	// a 10x workload over a 1x workload, with and without checkpointed
	// compaction. scanned counts are deterministic (fixed workload seed),
	// so tail_growth is a stable gate input; the recovery seconds are
	// host wall-clock, informational only.
	Compaction struct {
		Stores1x          int     `json:"stores_1x"`
		ScannedFull1x     int     `json:"scanned_full_1x"`
		ScannedFull10x    int     `json:"scanned_full_10x"`
		ScannedCompact1x  int     `json:"scanned_compact_1x"`
		ScannedCompact10x int     `json:"scanned_compact_10x"`
		FullGrowth        float64 `json:"full_growth"`
		TailGrowth        float64 `json:"tail_growth"`
		RecoverCompactSec float64 `json:"recover_compact_10x_sec"`
	} `json:"compaction"`

	// Recovery times partitioned parallel log replay against the
	// sequential scan on a 10x-scale log. The wall-clock seconds are
	// host-side and informational; output_identical is the hard
	// property — every worker count must recover the byte-identical
	// image the sequential replay produces — and the 4-worker speedup
	// is gated by benchgate on hosts with enough cores.
	Recovery struct {
		Txns          int            `json:"txns"`
		LogRecords    int            `json:"log_records"`
		SequentialSec float64        `json:"sequential_sec"`
		Workers       []recoveryInfo `json:"workers"`
		Identical     bool           `json:"output_identical"`
	} `json:"recovery"`

	// Serving drives the in-process lvmd daemon (mem transport) with the
	// lvmload client fleet and drains it. Latency numbers are host
	// wall-clock, informational; all_acked, drain_clean and the summed
	// per-shard lvmd.*/compact.* counters are the gate inputs — a stall
	// policy dropping acknowledged commits or an unclean drain is a
	// correctness regression regardless of host speed.
	Serving struct {
		Shards        int               `json:"shards"`
		Clients       int               `json:"clients"`
		Segments      int               `json:"segments"`
		Seconds       float64           `json:"seconds"`
		Sent          uint64            `json:"sent"`
		Acked         uint64            `json:"acked"`
		Deaths        uint64            `json:"deaths"`
		ReadErrors    uint64            `json:"read_errors"`
		CommitsPerSec float64           `json:"commits_per_sec"`
		P50us         float64           `json:"p50_us"`
		P95us         float64           `json:"p95_us"`
		P99us         float64           `json:"p99_us"`
		AllAcked      bool              `json:"all_acked"`
		DrainClean    bool              `json:"drain_clean"`
		Counters      map[string]uint64 `json:"counters"`
	} `json:"serving"`

	// Failover records the robustness-path measurements: promotion of a
	// replica at its acked watermark (promote_ok demands an exact
	// watermark, every acked word served by the server booted from the
	// promoted image, and a replica converged on it) and a
	// live segment migration under the client fleet (acked_readable
	// demands every acknowledged write read back through the
	// post-migration routes). The pauses are host wall-clock —
	// informational trend data — but benchgate bounds the migration
	// pause: a cutover that stops the world for seconds is a regression
	// no matter the host.
	Failover struct {
		PromoteWatermark   uint64  `json:"promote_watermark"`
		PromoteLost        uint64  `json:"promote_lost"`
		PromoteMS          float64 `json:"promote_ms"`
		PromoteOK          bool    `json:"promote_ok"`
		MigrateSegment     uint64  `json:"migrate_segment"`
		MigrateFrom        int     `json:"migrate_from"`
		MigrateTo          int     `json:"migrate_to"`
		MigratePauseMS     float64 `json:"migrate_pause_ms"`
		MigrateChaseRounds int     `json:"migrate_chase_rounds"`
		MigrateDeltaWrites int     `json:"migrate_delta_writes"`
		MigrateSnapshotB   int     `json:"migrate_snapshot_bytes"`
		LoadAcked          uint64  `json:"load_acked"`
		AckedReadable      bool    `json:"acked_readable"`
	} `json:"failover"`

	// Counters is the non-zero metrics snapshot of the benchmarked
	// system after the final run — proof the instrumented hot path was
	// actually counting while hitting the ns/store number above.
	Counters map[string]uint64 `json:"counters"`
}

// recoveryInfo is one parallel-replay timing point.
type recoveryInfo struct {
	Workers int     `json:"workers"`
	Sec     float64 `json:"sec"`
	Speedup float64 `json:"speedup"`
}

// benchJSON measures the logged-store hot path with the standard Go
// benchmark harness, times the Figure 7 sweep sequentially and with the
// worker pool, and writes BENCH_lvm.json next to the current directory.
func benchJSON() error {
	var r benchReport
	r.Generated = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)

	var lastLoop *experiments.StoreLoop
	res := testing.Benchmark(func(b *testing.B) {
		sl, err := experiments.NewStoreLoop()
		if err != nil {
			b.Fatal(err)
		}
		if err := sl.Warm(); err != nil {
			b.Fatal(err)
		}
		lastLoop = sl
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sl.Step()
		}
		b.StopTimer()
		if err := sl.Err(); err != nil {
			b.Fatal(err)
		}
	})
	if lastLoop != nil {
		r.Counters = lastLoop.Sys.MetricsSnapshot().Nonzero()
	}
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	r.Throughput.NsPerStore = ns
	r.Throughput.AllocsPerStore = res.AllocsPerOp()
	r.Throughput.BytesPerStore = res.AllocedBytesPerOp()
	r.Throughput.StoresPerSec = 1e9 / ns

	fig7Events := *events
	r.Fig7.Events = fig7Events
	time7 := func(workers int) ([]experiments.Fig7Point, float64, error) {
		old := sim.Workers()
		sim.SetWorkers(workers)
		defer sim.SetWorkers(old)
		start := time.Now()
		pts, err := experiments.Fig7(fig7Events)
		return pts, time.Since(start).Seconds(), err
	}
	seqPts, seqSec, err := time7(1)
	if err != nil {
		return err
	}
	workers := sim.Workers()
	if *parallel > 0 {
		workers = *parallel
	}
	parPts, parSec, err := time7(workers)
	if err != nil {
		return err
	}
	r.Fig7.Workers = workers
	r.Fig7.SequentialSec = seqSec
	r.Fig7.ParallelSec = parSec
	r.Fig7.Speedup = seqSec / parSec
	r.Fig7.Identical = experiments.FormatFig7(seqPts) == experiments.FormatFig7(parPts)

	// Fixed workload sizes (independent of -iters) keep the scanned
	// counts comparable across baseline and candidate runs.
	const compactStores = 1024
	full1, err := compactProbe(compactStores, 0)
	if err != nil {
		return err
	}
	full10, err := compactProbe(10*compactStores, 0)
	if err != nil {
		return err
	}
	comp1, err := compactProbe(compactStores, benchCompactEvery)
	if err != nil {
		return err
	}
	comp10, err := compactProbe(10*compactStores, benchCompactEvery)
	if err != nil {
		return err
	}
	r.Compaction.Stores1x = compactStores
	r.Compaction.ScannedFull1x = full1.Scanned
	r.Compaction.ScannedFull10x = full10.Scanned
	r.Compaction.ScannedCompact1x = comp1.Scanned
	r.Compaction.ScannedCompact10x = comp10.Scanned
	r.Compaction.FullGrowth = growth(full10.Scanned, full1.Scanned, 1)
	r.Compaction.TailGrowth = growth(comp10.Scanned, comp1.Scanned, benchTailBound)
	r.Compaction.RecoverCompactSec = comp10.RecoverSec

	if err := recoveryBench(&r); err != nil {
		return err
	}
	if err := servingBench(&r); err != nil {
		return err
	}
	if err := failoverBench(&r); err != nil {
		return err
	}

	buf, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_lvm.json", buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote BENCH_lvm.json: %.1f ns/store (%.2fM stores/sec, %d allocs/op), fig7 %dx workers %.2fx wall-clock, identical=%v\n",
		ns, r.Throughput.StoresPerSec/1e6, r.Throughput.AllocsPerStore,
		workers, r.Fig7.Speedup, r.Fig7.Identical)
	fmt.Printf("compaction: replay growth at 10x workload %.2fx full vs %.2fx compacted\n",
		r.Compaction.FullGrowth, r.Compaction.TailGrowth)
	for _, w := range r.Recovery.Workers {
		fmt.Printf("recovery %dw: %.2fx vs sequential\n", w.Workers, w.Speedup)
	}
	fmt.Printf("recovery output identical: %v\n", r.Recovery.Identical)
	printServing(&r)
	printFailover(&r)
	return nil
}

// recoveryBench builds one marker-transaction workload on a 10x-scale log
// (ten times the compaction bench's 1x store count) and replays it
// sequentially and at 1/2/4/8 workers, each into a fresh destination.
// Every image must match the sequential one byte for byte; each point is
// the best of three runs to shave scheduler noise off the wall clock.
func recoveryBench(r *benchReport) error {
	const segSize = 256 * 1024
	const markerLimit = 16
	const stores = 10 * 1024 // 10x the compaction bench's 1x workload

	logPages := uint32(3*stores*16/int(core.PageSize)) + 8
	sys := core.NewSystem(core.Config{
		NumCPUs:   1,
		MemFrames: int(segSize/core.PageSize) + int(logPages) + 4096,
	})
	seg := core.NewNamedSegment(sys, "rec-data", segSize, nil)
	reg := core.NewStdRegion(sys, seg)
	ls := core.NewLogSegment(sys, logPages)
	if err := reg.Log(ls); err != nil {
		return err
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		return err
	}
	p := sys.NewProcess(0, as)

	wr := fault.NewRNG(0xD15C0)
	seq := uint32(0)
	for s := 0; s < stores; {
		seq++
		p.Store32(base, seq)
		n := 1 + wr.Intn(benchMaxBatch)
		for j := 0; j < n; j++ {
			off := uint32(markerLimit) + uint32(wr.Intn((segSize-markerLimit)/4))*4
			p.Store32(base+off, uint32(wr.Next()))
			s++
		}
		p.Store32(base, seq|recovery.MarkerCommit)
	}
	sys.Sync()
	r.Recovery.Txns = int(seq)
	r.Recovery.LogRecords = int(sys.K.LogAppendOffset(ls)) / 16

	replay := func(workers int) (recovery.Result, []byte, float64) {
		best := 0.0
		var res recovery.Result
		var img []byte
		for try := 0; try < 3; try++ {
			dst := core.NewNamedSegment(sys, "rec-dst", segSize, nil)
			start := time.Now()
			res = recovery.Replay(sys, recovery.ReplayOptions{
				Log: ls, Data: seg, Dst: dst,
				MarkerLimit: markerLimit, Workers: workers,
			})
			sec := time.Since(start).Seconds()
			if try == 0 || sec < best {
				best = sec
			}
			img = make([]byte, segSize)
			dst.ReadInto(0, img)
		}
		return res, img, best
	}

	seqRes, seqImg, seqSec := replay(0)
	r.Recovery.SequentialSec = seqSec
	r.Recovery.Identical = true
	for _, w := range []int{1, 2, 4, 8} {
		res, img, sec := replay(w)
		if res != seqRes || !bytes.Equal(img, seqImg) {
			r.Recovery.Identical = false
		}
		r.Recovery.Workers = append(r.Recovery.Workers, recoveryInfo{
			Workers: w, Sec: sec, Speedup: seqSec / sec,
		})
	}
	return nil
}
