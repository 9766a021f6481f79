package main

import (
	"fmt"
	"os"
	"time"

	"lvm/internal/crashtest"
	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

// Failover-bench shape: part one runs the failover crash-test rig once
// (crashtest.MeasurePromotion: promotion pause, watermark, measured
// loss, and the booted server's checks); part two migrates a live
// tenant segment between lvmd shards while the lvmload fleet commits
// against it (convergence pause, chase work, and the acked-readable
// proof via the fleet's own model).
const (
	failoverTxns    = 256
	migrateShards   = 4
	migrateClients  = 64
	migrateSegments = 16
	migrateDuration = 1200 * time.Millisecond
	migrateWarmup   = 300 * time.Millisecond
	migrateSegID    = uint64(1)
)

// migrateBench boots the in-process daemon, points the lvmload fleet at
// it, and migrates one live tenant segment mid-load. The convergence
// pause (freeze → route flip) is recorded, and acked_readable is the
// hard property: after the fleet drains, every word it was ever
// acknowledged must read back — the migrated segment's from the
// destination shard.
func migrateBench(r *benchReport) error {
	dir, err := os.MkdirTemp("", "lvmbench-failover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := lvmd.NewServer(lvmd.ServerConfig{
		Dir:    dir,
		Shards: migrateShards,
		Shard: lvmd.ShardConfig{
			Core: lvmd.CoreConfig{
				Slots: 64, SlotSize: 4096, LogPages: 256,
				AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024,
			},
		},
	})
	if err != nil {
		return err
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)

	type loadOut struct {
		res   lvmd.LoadResult
		model *lvmd.Model
		err   error
	}
	loadCh := make(chan loadOut, 1)
	go func() {
		res, model, err := lvmd.RunLoad(lvmd.LoadConfig{
			Dial:            dial,
			Clients:         migrateClients,
			Segments:        migrateSegments,
			Duration:        migrateDuration,
			StoresPerCommit: 4,
			VerifyEvery:     16,
		})
		loadCh <- loadOut{res, model, err}
	}()

	time.Sleep(migrateWarmup) // let the fleet open segments and heat the shard
	from := srv.Owner(migrateSegID)
	to := (from + 1) % migrateShards
	mig, migErr := srv.Migrate(migrateSegID, to)

	out := <-loadCh
	if out.err != nil {
		srv.Drain()
		return out.err
	}
	if migErr != nil {
		srv.Drain()
		return fmt.Errorf("migrate segment %d: %w", migrateSegID, migErr)
	}

	// Every acked word must read back through the post-migration routes.
	checked, bad, err := lvmd.VerifyModel(dial, out.model)
	rep := srv.Drain()
	if err != nil {
		return err
	}

	f := &r.Failover
	f.MigrateSegment = mig.SegID
	f.MigrateFrom = mig.From
	f.MigrateTo = mig.To
	f.MigratePauseMS = float64(mig.PauseNS) / 1e6
	f.MigrateChaseRounds = mig.ChaseRounds
	f.MigrateDeltaWrites = mig.DeltaWrites
	f.MigrateSnapshotB = mig.SnapshotBytes
	f.LoadAcked = out.res.Acked
	f.AckedReadable = out.res.Acked > 0 && out.res.Deaths == 0 &&
		checked > 0 && len(bad) == 0 && rep.Drained
	return nil
}

// failoverBench runs the failover crash rig's promotion once — a dead
// lvmd shard core's replica promoted through lvmd.Failover and booted
// with lvmd.NewServer, as the standby daemon does — then migrateBench.
// The pause is host wall clock, informational; the hard gate input is
// promote_ok (exact watermark, acked state served, the booted server
// converges and serves the granted epoch).
func failoverBench(r *benchReport) error {
	p, err := crashtest.MeasurePromotion(failoverTxns)
	if err != nil {
		return err
	}
	if !p.OK {
		fmt.Fprintf(os.Stderr, "failover: promotion check failed: %s\n", p.Fail)
	}
	r.Failover.PromoteWatermark = p.Watermark
	r.Failover.PromoteLost = p.Head - p.Watermark
	r.Failover.PromoteMS = float64(p.Pause.Nanoseconds()) / 1e6
	r.Failover.PromoteOK = p.OK
	return migrateBench(r)
}

func printFailover(r *benchReport) {
	f := &r.Failover
	fmt.Printf("failover: promote watermark=%d lost=%d pause=%.1fms ok=%v\n",
		f.PromoteWatermark, f.PromoteLost, f.PromoteMS, f.PromoteOK)
	fmt.Printf("failover: migrate seg=%d shard %d->%d pause=%.1fms chase=%d delta=%d snapshot=%dB acked=%d readable=%v\n",
		f.MigrateSegment, f.MigrateFrom, f.MigrateTo, f.MigratePauseMS,
		f.MigrateChaseRounds, f.MigrateDeltaWrites, f.MigrateSnapshotB,
		f.LoadAcked, f.AckedReadable)
}
