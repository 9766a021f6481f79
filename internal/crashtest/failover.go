package crashtest

import (
	"errors"
	"fmt"
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

const (
	// releaseWait bounds the replication-ack waits. A generous bound keeps
	// slow CI machines from flaking; on success the wait leaves no trace
	// in the outcome line, so determinism is unaffected.
	releaseWait = 10 * time.Second

	// leaseTTL is the serving-lease TTL in manual-clock ticks. The clock
	// only moves when a scenario advances it, so every deadline
	// comparison is cycle-deterministic: both executions of a plan see
	// identical expiry decisions regardless of wall-clock scheduling.
	leaseTTL = 1000

	foSegSize     = 8 * core.PageSize
	foMarkerLimit = 16
)

// foRig is the shared failover crash-test rig: a marker-protocol
// producer shipping to one tracked replica, a lease holder renewing by
// heartbeat and the replica's monitor (both on one manual clock), and
// the lvmd.Failover every template promotes through, which is the code
// the standby daemon runs. The primary's shipper stays reachable after
// its "death": it is the zombie the fencing must refuse.
type foRig struct {
	t      template
	plan   fault.Plan
	clk    *lease.Manual
	holder *lease.Holder
	sys    *core.System
	prod   *dsm.LVMProducer
	ship   *logship.Shipper
	dial   logship.DialFunc
	r      *logship.Replica
	fo     *lvmd.Failover
	mon    *lease.Monitor
	wr     *fault.RNG

	shadow map[uint32]uint32 // acked complete-transaction state
	recs   uint64            // records the producer logged
	seq    uint32            // transaction sequence
	beats  uint64            // heartbeats broadcast

	verdict, note string
}

// newFoRig builds the rig, connects the replica and broadcasts the
// grant beat. Close the shipper when done.
func newFoRig(t template, plan fault.Plan) (*foRig, error) {
	g := &foRig{
		t: t, plan: plan, clk: lease.NewManual(0),
		wr: fault.NewRNG(plan.Seed + 1), shadow: make(map[uint32]uint32), verdict: "RECOVERED",
	}
	g.holder = lease.NewHolder(g.clk, leaseTTL, 1)
	ln, dial := logship.NewMemTransport()
	g.dial = dial
	g.sys = core.NewSystem(core.Config{NumCPUs: 1, MemFrames: 8192})
	p := g.sys.NewProcess(0, g.sys.NewAddressSpace())
	prod, err := dsm.NewLVMProducer(g.sys, p, foSegSize, 512)
	if err != nil {
		return nil, fmt.Errorf("producer err=%v", err)
	}
	g.prod = prod
	g.ship = logship.NewShipper(g.sys, prod.Segment(), prod.LogSegment(), ln, logship.Config{FlushRecords: 8})
	if g.r, err = logship.NewReplica(dial, foSegSize); err != nil {
		g.ship.Close()
		return nil, fmt.Errorf("replica err=%v", err)
	}
	g.r.TrackMarkers(foMarkerLimit)
	g.fo = lvmd.NewFailover(g.clk, leaseTTL, g.r)
	g.mon = g.fo.Monitor(0)
	if err := g.r.Connect(); err != nil {
		g.ship.Close()
		return nil, fmt.Errorf("connect err=%v", err)
	}
	if !g.beat() {
		g.ship.Close()
		return nil, errors.New("first renewal refused")
	}
	return g, nil
}

// fail records the first failed check; the verdict line carries it.
func (g *foRig) fail(f string, args ...any) {
	if g.verdict == "RECOVERED" {
		g.verdict, g.note = "FAIL", fmt.Sprintf(f, args...)
	}
}

// outcome renders the verdict line: the plan, then the template's own
// fields, then the first failed check.
func (g *foRig) outcome(fields string) (outcome, uint64) {
	line := fmt.Sprintf("plan=%s seed=%#x verdict=%s %s", g.t.name, g.plan.Seed, g.verdict, fields)
	if g.note != "" {
		line += " err=" + g.note
	}
	return outcome{line: line, ok: g.verdict == "RECOVERED"}, g.sys.Elapsed()
}

// beat renews the lease and broadcasts it, reporting false once the
// holder has demoted itself. Evidence is gathered (and joiners
// admitted) before each renewal, as the shard loop does; under the
// frozen manual clock the verdict cannot depend on how many acks have
// raced back yet. Scenarios beat only where the subscription queue is
// drained, so the non-blocking enqueue never drops and the beat count
// stays deterministic.
func (g *foRig) beat() bool {
	engaged, acked := g.ship.LeaseEvidence()
	b, ok := g.holder.Renew(engaged, acked)
	if !ok {
		return false
	}
	_ = g.ship.Heartbeat(b) //errgate:ok — renewal is best effort, as in the shard loop; the partition scenario beats into a dead link on purpose
	g.beats++
	return true
}

func (g *foRig) off() uint32 {
	return foMarkerLimit + uint32(g.wr.Intn((foSegSize-foMarkerLimit)/4))*4
}

// commitTxn logs one complete marker-protocol transaction; acked ones
// enter the shadow the promoted image is diffed against.
func (g *foRig) commitTxn(acked bool) {
	g.seq++
	g.prod.Write(0, g.seq)
	g.recs++
	n := 1 + g.wr.Intn(g.t.maxBatch)
	for j := 0; j < n; j++ {
		off, val := g.off(), uint32(g.wr.Next())
		g.prod.Write(off, val)
		if acked {
			g.shadow[off] = val
		}
		g.recs++
	}
	g.prod.Write(0, g.seq|recovery.MarkerCommit)
	g.recs++
}

// ackedTxns commits n transactions and releases them: every one is
// shipped and acknowledged.
func (g *foRig) ackedTxns(n int) error {
	for i := 0; i < n; i++ {
		g.commitTxn(true)
		if i%6 == 5 {
			if err := g.ship.Flush(); err != nil {
				return fmt.Errorf("flush err=%v", err)
			}
		}
	}
	if err := g.ship.ReleaseShip(releaseWait); err != nil {
		return fmt.Errorf("release err=%v", err)
	}
	return nil
}

// halfTxn ships a transaction's begin marker and a few stores but never
// its commit marker (batches seal at record counts, not transaction
// boundaries): promotion must roll it back.
func (g *foRig) halfTxn() error {
	g.seq++
	g.prod.Write(0, g.seq)
	g.recs++
	for j := 0; j < 1+int(g.plan.Seed%3); j++ {
		g.prod.Write(g.off(), uint32(g.wr.Next()))
		g.recs++
	}
	if err := g.ship.ReleaseShip(releaseWait); err != nil {
		return fmt.Errorf("release err=%v", err)
	}
	return nil
}

// unshippedTail logs transactions that never ship and returns the dead
// primary's head: it runs ahead of the acked watermark by exactly these
// records — the measured loss bound, which the shadow must not see.
func (g *foRig) unshippedTail() uint64 {
	for i := 0; i < 4+int(g.plan.Seed%5); i++ {
		g.commitTxn(false)
	}
	return g.recs
}

// waitBeats blocks until the monitor has observed every beat broadcast.
// The wait is wall-clock (frame delivery is asynchronous) but leaves no
// trace in the outcome line; the count itself is deterministic.
func (g *foRig) waitBeats() error {
	deadline := time.Now().Add(releaseWait)
	for g.mon.Beats() < g.beats {
		if time.Now().After(deadline) {
			return fmt.Errorf("monitor saw %d/%d beats", g.mon.Beats(), g.beats)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// waitAck blocks until the shipper's delivery evidence covers beat seq
// n. Wall-clock like waitBeats, and equally trace-free: the manual
// clock does not move while we spin, so pinning the ack before any
// advance makes every later renewal verdict cycle-deterministic.
func (g *foRig) waitAck(n uint64) error {
	deadline := time.Now().Add(releaseWait)
	for {
		if _, acked := g.ship.LeaseEvidence(); acked >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("beat %d never acknowledged", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// expire lets the lease run out: once the monitor has heard every beat,
// the clock moves one tick past the TTL with no renewal. The monitor
// must then read expired.
func (g *foRig) expire() error {
	if err := g.waitBeats(); err != nil {
		return err
	}
	g.clk.Advance(leaseTTL + 1)
	if !g.mon.Expired() {
		g.fail("monitor not expired after the TTL ran out")
	}
	return nil
}

// killPhase is the promotion phase the seed kills: eight seeds sweep
// every phase twice.
func (g *foRig) killPhase() string {
	phases := []string{logship.PhaseFreeze, logship.PhasePrepare, logship.PhaseCommit, logship.PhaseActivate}
	return phases[g.plan.CrashAtCycle%uint64(len(phases))]
}

// promote runs Failover.Promote killed at the seed's phase, then
// resumes it. It checks the promoted watermark and diffs the acked
// shadow against the promoted image, returning the boot shard and the
// differing word count.
func (g *foRig) promote(watermark uint64) (lvmd.BootShard, int, error) {
	errKill := errors.New("crashtest: simulated kill")
	kill := g.killPhase()
	if _, err := g.fo.Promote(logship.PromoteHooks{After: func(ph string) error {
		if ph == kill {
			return errKill
		}
		return nil
	}}); !errors.Is(err, errKill) {
		return lvmd.BootShard{}, 0, fmt.Errorf("kill at %s not delivered: err=%v", kill, err)
	}
	boot, err := g.fo.Promote(logship.PromoteHooks{})
	if err != nil {
		return lvmd.BootShard{}, 0, fmt.Errorf("promotion resume err=%v", err)
	}
	if got := g.r.LastSeq(); got != watermark {
		g.fail("watermark=%d want %d", got, watermark)
	}
	diffs := 0
	for off, val := range g.shadow {
		if le32(boot[0].Img[off:]) != val {
			diffs++
		}
	}
	if diffs != 0 {
		g.fail("acked words lost diff=%d", diffs)
	}
	return boot[0], diffs, nil
}

// probeZombie has a replica that learned the promoted epoch dial the
// ex-primary: the zombie's shipper must refuse it loudly (ErrFenced, not
// a silent hangup) and count the fenced hello, which it returns.
func (g *foRig) probeZombie(epoch uint32) (uint64, error) {
	r2, err := logship.NewReplica(g.dial, foSegSize)
	if err != nil {
		return 0, fmt.Errorf("fence replica err=%v", err)
	}
	r2.SetEpoch(epoch)
	if ferr := r2.Connect(); !errors.Is(ferr, logship.ErrFenced) {
		r2.Kill()
		g.fail("zombie refusal = %v, want ErrFenced", ferr)
	}
	fenced := g.ship.Stats.FencedHellos.Load()
	if fenced == 0 {
		g.fail("zombie shipper did not count the fenced hello")
	}
	return fenced, nil
}

// rolled checks the half-replicated transaction was rolled back. The
// rollback may have run during the killed attempt, so the replica's
// counter (the total) is the one to read.
func (g *foRig) rolled() uint64 {
	n := g.r.Stats.RolledBack.Load()
	if n == 0 {
		g.fail("half-replicated transaction was never rolled back")
	}
	return n
}

// runFailover proves the promotion handshake under fire: the primary
// ships an acked workload plus a half-replicated transaction, writes an
// unshipped tail and "dies"; its lease runs out, and the promotion is
// killed at the phase the seed selects (freeze/activate are candidate-
// side crashes, prepare/commit coordinator-side) and then resumed. The
// verdict demands:
//
//   - no acked record lost: the promoted watermark equals the exact acked
//     sequence and every acked transaction's writes survive on the
//     promoted image (the half-replicated tail rolled back to its last
//     transaction boundary);
//   - measured bounded loss: exactly head − watermark, the records the
//     dead primary logged but never shipped;
//   - no split-brain: a replica of the promoted generation that dials
//     the zombie ex-primary is refused on epoch alone;
//   - the re-seeded primary works: Takeover from the promoted image, a
//     fresh replica converges on it byte-identical via the snapshot
//     catch-up.
//
// No wall-clock state reaches the outcome line, so both executions of a
// plan must match byte-for-byte.
func runFailover(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 48
	if short {
		txns = 16
	}
	g, err := newFoRig(t, plan)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	defer g.ship.Close()
	if err := g.ackedTxns(txns); err != nil {
		return failf(plan, "%v", err), 0
	}
	if err := g.halfTxn(); err != nil {
		return failf(plan, "%v", err), 0
	}
	watermark := g.recs
	head := g.unshippedTail()
	if err := g.expire(); err != nil {
		return failf(plan, "%v", err), 0
	}
	boot, diffs, err := g.promote(watermark)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	rolled := g.rolled()
	fenced, err := g.probeZombie(boot.Epoch)
	if err != nil {
		return failf(plan, "%v", err), 0
	}

	// Re-seed a primary from the promoted image and prove a fresh replica
	// converges on it (snapshot catch-up: its ack floor is below the
	// watermark the new log starts at).
	ln2, dial2 := logship.NewMemTransport()
	pr, err := logship.Takeover(boot.Img, logship.Grant{Epoch: boot.Epoch}, watermark, ln2, logship.TakeoverConfig{
		Disk: ramdisk.New(),
		Ship: logship.Config{FlushRecords: 8},
	})
	if err != nil {
		return failf(plan, "takeover err=%v", err), 0
	}
	defer pr.Ship.Close()
	if got := pr.Ship.Epoch(); got != boot.Epoch {
		g.fail("takeover shipper epoch=%d want %d", got, boot.Epoch)
	}
	for i := 0; i < 6; i++ {
		g.seq++
		pr.P.Store32(pr.Base, g.seq)
		for j := 0; j < 3; j++ {
			pr.P.Store32(pr.Base+core.Addr(g.off()), uint32(g.wr.Next()))
		}
		pr.P.Store32(pr.Base, g.seq|recovery.MarkerCommit)
	}
	pr.Sys.Sync()
	if err := pr.Ship.Flush(); err != nil {
		return failf(plan, "takeover flush err=%v", err), 0
	}
	r3, err := logship.NewReplica(dial2, foSegSize)
	if err != nil {
		return failf(plan, "converge replica err=%v", err), 0
	}
	r3.TrackMarkers(foMarkerLimit)
	if err := r3.Connect(); err != nil {
		return failf(plan, "converge connect err=%v", err), 0
	}
	if err := pr.Ship.ReleaseShip(releaseWait); err != nil {
		return failf(plan, "takeover release err=%v", err), 0
	}
	r3.Kill()
	if err := dsm.Verify(pr.Seg, r3.Consumer(), foSegSize); err != nil {
		g.fail("takeover replica diverged: %v", err)
	}

	side := "coordinator"
	if k := g.killPhase(); k == logship.PhaseFreeze || k == logship.PhaseActivate {
		side = "candidate"
	}
	return g.outcome(fmt.Sprintf(
		"phase=%s side=%s watermark=%d head=%d lost=%d rolled=%d epoch=%d fenced=%d diff=%d",
		g.killPhase(), side, watermark, head, head-watermark, rolled, boot.Epoch, fenced, diffs))
}

// runLeaseExpiry is runFailover's workload with the lease in the
// foreground: the primary renews by heartbeat through the acked phase,
// then dies with an unshipped tail, and the standby's monitor — not an
// operator — authorizes the promotion. The verdict additionally demands:
//
//   - promotion REFUSES while the lease is current (no split-brain by
//     eagerness: a slow primary is not a dead primary until the TTL
//     says so);
//   - the dead primary self-demotes: its holder refuses to renew after
//     the gap, so even a resumed zombie process stops claiming writes;
//   - the resumed zombie is refused loudly: a promoted-generation
//     subscriber dialing it gets ErrFenced, not a silent hangup.
func runLeaseExpiry(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 48
	if short {
		txns = 16
	}
	g, err := newFoRig(t, plan)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	defer g.ship.Close()
	if err := g.ackedTxns(txns); err != nil {
		return failf(plan, "%v", err), 0
	}
	if !g.beat() {
		return failf(plan, "holder lost the lease mid-workload"), 0
	}
	if err := g.halfTxn(); err != nil {
		return failf(plan, "%v", err), 0
	}
	watermark := g.recs
	if !g.beat() {
		return failf(plan, "holder lost the lease mid-workload"), 0
	}
	if err := g.waitBeats(); err != nil {
		return failf(plan, "%v", err), 0
	}
	head := g.unshippedTail()

	// The lease is still current: automatic promotion must refuse. A
	// standby that promotes early forks the timeline; ErrHeld is the
	// safety half of the protocol.
	if _, err := g.fo.Promote(logship.PromoteHooks{}); !errors.Is(err, lease.ErrHeld) {
		g.fail("promotion under a live lease = %v, want ErrHeld", err)
	}
	if g.mon.Expired() {
		g.fail("monitor expired while beats were current")
	}
	// The primary dies: no more beats, and the clock runs the TTL out.
	if err := g.expire(); err != nil {
		return failf(plan, "%v", err), 0
	}
	// Self-demotion: the resumed zombie's own holder measures the same
	// gap on its own clock and refuses to renew, permanently.
	if g.beat() || !g.holder.Lost() {
		g.fail("dead primary's holder renewed across the expiry gap")
	}
	boot, diffs, err := g.promote(watermark)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	g.rolled()
	fenced, err := g.probeZombie(boot.Epoch)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	return g.outcome(fmt.Sprintf(
		"phase=%s watermark=%d head=%d lost=%d beats=%d epoch=%d fenced=%d diff=%d",
		g.killPhase(), watermark, head, head-watermark, g.mon.Beats(), boot.Epoch, fenced, diffs))
}

// runLeasePartition models the stall half of the safety argument: the
// primary does not die, its renewal loop pauses — a GC-length stall, a
// SIGSTOP that lifts. (The other half, a network partition where the
// loop keeps running but messages die, is runLeaseDrop.) The standby
// promotes when the lease runs out; the old primary then comes back
// and tries to carry on. The verdict demands exactly one writable
// primary at every step:
//
//   - the resumed holder's own renewal fails (it measures the same gap
//     on its own clock) — it demotes itself before accepting a write;
//   - its late heartbeat reaching the standby is dropped as stale, not
//     allowed to re-arm the superseded deadline;
//   - nothing was in flight (everything acked before the pause), so the
//     measured loss is exactly zero.
func runLeasePartition(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 32
	if short {
		txns = 12
	}
	g, err := newFoRig(t, plan)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	defer g.ship.Close()
	if err := g.ackedTxns(txns); err != nil {
		return failf(plan, "%v", err), 0
	}
	// The pause: the clock advances past the TTL with no renewals. The
	// primary process is alive the whole time — it just can't prove it.
	if err := g.expire(); err != nil {
		return failf(plan, "%v", err), 0
	}
	boot, diffs, err := g.promote(g.recs)
	if err != nil {
		return failf(plan, "%v", err), 0
	}

	// The pause heals; the old primary resumes mid-heartbeat-loop and
	// must not renew.
	if g.beat() || !g.holder.Lost() {
		g.fail("resumed primary renewed across the pause: two writable primaries")
	}
	// Its late beat — queued before the pause, delivered after — must
	// not re-arm the superseded generation's deadline.
	g.mon.Observe(logship.Beat{Kind: logship.BeatRenew, Epoch: boot.Epoch, Seq: 1, TTL: leaseTTL})
	g.mon.Observe(logship.Beat{Kind: logship.BeatRenew, Epoch: 1, Seq: 99, TTL: leaseTTL})
	if g.mon.Stale() != 1 {
		g.fail("late zombie beat not classified stale (stale=%d)", g.mon.Stale())
	}
	if g.mon.Epoch() != boot.Epoch {
		g.fail("monitor epoch=%d want the promoted %d", g.mon.Epoch(), boot.Epoch)
	}
	// And the refused zombie is told why.
	if _, err := g.probeZombie(boot.Epoch); err != nil {
		return failf(plan, "%v", err), 0
	}
	return g.outcome(fmt.Sprintf(
		"phase=%s watermark=%d lost=%d stale=%d epoch=%d diff=%d",
		g.killPhase(), g.r.LastSeq(), g.recs-g.r.LastSeq(), g.mon.Stale(), boot.Epoch, diffs))
}

// runLeaseDrop models the partition half of the safety argument — the
// failure shape runLeasePartition cannot see: the primary's renewal
// loop stays perfectly healthy, only its messages die. Without
// delivery evidence this is the split-brain hole — the holder happily
// measures its own loop-scheduling gap while the standby hears
// silence, expires, and promotes: two writable primaries. With it,
// the holder demands that some observer acknowledged a beat issued
// within the last TTL, so a cut-off primary demotes itself on the
// same tick schedule the standby promotes on. The verdict demands:
//
//   - renewals keep succeeding while evidence is current, and
//     promotion refuses (ErrHeld) at every one of those steps;
//   - the cut-off holder demotes by the evidence rule exactly one TTL
//     after its last acknowledged beat — and at no step is the
//     monitor expired while the holder still renews;
//   - the standby then promotes with zero loss (everything acked
//     before the cut), and the zombie's shipper refuses a
//     promoted-generation subscriber with ErrFenced.
func runLeaseDrop(t template, plan fault.Plan, short bool) (outcome, uint64) {
	txns := 32
	if short {
		txns = 12
	}
	g, err := newFoRig(t, plan)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	defer g.ship.Close()
	if err := g.ackedTxns(txns); err != nil {
		return failf(plan, "%v", err), 0
	}
	if err := g.waitBeats(); err != nil {
		return failf(plan, "%v", err), 0
	}
	// Pin beat 1's acknowledgement before the cut: that ack, dated by
	// its issue tick (0), is all the evidence the cut-off holder's
	// renewals will live on for exactly one TTL.
	if err := g.waitAck(1); err != nil {
		return failf(plan, "%v", err), 0
	}

	// The partition: the connection dies; the renewal loop does not.
	g.r.Kill()

	// The loop keeps ticking at TTL/4 — the stall rule never fires —
	// but its beats reach nobody and earn no acks, so the evidence rule
	// runs out one TTL after the last acked issue tick (0): the renewal
	// at tick 1250, step 5. The monitor armed at receipt (also tick 0)
	// plus the TTL and expires past tick 1000 — the same step. At no
	// step may the monitor be expired while the holder still renews.
	demoteStep := 0
	for step := 1; step <= 6; step++ {
		g.clk.Advance(leaseTTL / 4)
		if !g.beat() {
			demoteStep = step
			break
		}
		if g.mon.Expired() {
			g.fail("monitor expired at step %d while the holder still renews: split-brain window", step)
		}
		if _, err := g.fo.Promote(logship.PromoteHooks{}); !errors.Is(err, lease.ErrHeld) {
			g.fail("promotion at step %d = %v, want ErrHeld", step, err)
		}
	}
	if demoteStep != 5 || !g.holder.Lost() {
		g.fail("cut-off holder demoted at step %d, want 5 (one TTL after the last acked beat)", demoteStep)
	}
	if !g.mon.Expired() {
		g.fail("monitor not expired after the holder gave up")
	}
	boot, diffs, err := g.promote(g.recs)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	if _, err := g.probeZombie(boot.Epoch); err != nil {
		return failf(plan, "%v", err), 0
	}
	return g.outcome(fmt.Sprintf(
		"phase=%s demote_step=%d watermark=%d lost=%d beats=%d epoch=%d diff=%d",
		g.killPhase(), demoteStep, g.r.LastSeq(), g.recs-g.r.LastSeq(), g.mon.Beats(), boot.Epoch, diffs))
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
