package main

import (
	"fmt"
	"os"
	"time"

	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/fault"
	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/lvmd"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// Failover-bench shape: part one promotes a replica of an in-process
// producer and re-seeds a primary from it (promotion pause, watermark,
// measured loss); part two migrates a live tenant segment between lvmd
// shards while the lvmload fleet commits against it (convergence pause,
// chase work, and the acked-readable proof via the fleet's own model).
const (
	failoverTxns    = 256
	failoverSegSize = 8 * core.PageSize
	migrateShards   = 4
	migrateClients  = 64
	migrateSegments = 16
	migrateDuration = 1200 * time.Millisecond
	migrateWarmup   = 300 * time.Millisecond
	migrateSegID    = uint64(1)
)

// promoteBench builds a primary/replica pair over the mem transport
// with the primary's lease on a manual clock, establishes an acked
// watermark, writes an unshipped tail, lets the lease run out, promotes
// through lvmd.Failover — the standby daemon's promotion path — and re-seeds a
// serving primary from the promoted image. The pause is the host
// wall-clock from promotion to a verified takeover — informational; the
// hard gate input is promote_ok (watermark exact, takeover serves the
// granted epoch and converges) recorded here.
func promoteBench(r *benchReport) error {
	const markerLimit = 16
	const leaseTTL = 1000 // manual-clock ticks
	ln, dial := logship.NewMemTransport()
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	prod, err := dsm.NewLVMProducer(sys, p, failoverSegSize, 512)
	if err != nil {
		return err
	}
	ship := logship.NewShipper(sys, prod.Segment(), prod.LogSegment(), ln, logship.Config{FlushRecords: 8})
	defer ship.Close()
	rep, err := logship.NewReplica(dial, failoverSegSize)
	if err != nil {
		return err
	}
	rep.TrackMarkers(markerLimit)
	clk := lease.NewManual(0)
	fo := lvmd.NewFailover(clk, leaseTTL, rep)
	if err := rep.Connect(); err != nil {
		return err
	}
	// The primary announces its lease before the workload: the beat is
	// queued ahead of every batch, so once the workload is acked the
	// replica's monitor has heard it.
	engaged, acked := ship.LeaseEvidence()
	beat, _ := lease.NewHolder(clk, leaseTTL, ship.Epoch()).Renew(engaged, acked)
	if err := ship.Heartbeat(beat); err != nil {
		return err
	}

	wr := fault.NewRNG(0xFA170)
	seq := uint32(0)
	recs := uint64(0)
	txn := func() {
		seq++
		prod.Write(0, seq)
		recs++
		for j := 0; j < 4; j++ {
			off := uint32(markerLimit) + uint32(wr.Intn((failoverSegSize-markerLimit)/4))*4
			prod.Write(off, uint32(wr.Next()))
			recs++
		}
		prod.Write(0, seq|recovery.MarkerCommit)
		recs++
	}
	for i := 0; i < failoverTxns; i++ {
		txn()
		if i%16 == 15 {
			if err := ship.Flush(); err != nil {
				return err
			}
		}
	}
	if err := ship.ReleaseShip(10 * time.Second); err != nil {
		return err
	}
	watermark := recs
	for i := 0; i < 8; i++ { // unshipped tail: the measured loss bound
		txn()
	}
	head := recs
	clk.Advance(leaseTTL + 1) // the primary is dead: its lease runs out

	t0 := time.Now()
	boot, err := fo.Promote(logship.PromoteHooks{})
	if err != nil {
		return err
	}
	ln2, dial2 := logship.NewMemTransport()
	pr, err := logship.Takeover(boot[0].Img, logship.Grant{Epoch: boot[0].Epoch}, rep.LastSeq(), ln2,
		logship.TakeoverConfig{
			Disk: ramdisk.New(),
			Ship: logship.Config{FlushRecords: 8},
		})
	if err != nil {
		return err
	}
	defer pr.Ship.Close()
	pause := time.Since(t0)

	// The promoted primary must actually serve: a fresh replica converges
	// on it (snapshot catch-up under the granted epoch).
	r2, err := logship.NewReplica(dial2, failoverSegSize)
	if err != nil {
		return err
	}
	r2.TrackMarkers(markerLimit)
	if err := r2.Connect(); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		seq++
		pr.P.Store32(pr.Base, seq)
		pr.P.Store32(pr.Base+core.Addr(markerLimit), uint32(wr.Next()))
		pr.P.Store32(pr.Base, seq|recovery.MarkerCommit)
	}
	pr.Sys.Sync()
	if err := pr.Ship.Flush(); err != nil {
		return err
	}
	if err := pr.Ship.ReleaseShip(10 * time.Second); err != nil {
		return err
	}
	r2.Kill()
	converged := dsm.Verify(pr.Seg, r2.Consumer(), failoverSegSize) == nil

	f := &r.Failover
	f.PromoteWatermark = rep.LastSeq()
	f.PromoteLost = head - rep.LastSeq()
	f.PromoteMS = float64(pause.Nanoseconds()) / 1e6
	f.PromoteOK = rep.LastSeq() == watermark && pr.Ship.Epoch() == boot[0].Epoch && converged
	return nil
}

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

func failoverBench(r *benchReport) error {
	if err := promoteBench(r); err != nil {
		return err
	}
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
