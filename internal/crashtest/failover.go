package crashtest

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"time"

	"lvm/internal/core"
	"lvm/internal/fault"
	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/lvmd"
	"lvm/internal/ramdisk"
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
)

// foCore sizes the rig primary's shard core and every server booted
// from its promoted image: the lvmd arena is the one image format a
// promotion hands over. Tuning stays off (NewCore leaves it off), so
// each store is one log record and the rig knows its acked watermark
// exactly. foSeg is the tenant segment the transactions commit to.
var foCore = lvmd.CoreConfig{Slots: 2, SlotSize: 8 * core.PageSize, LogPages: 64}

const foSeg = uint64(1)

// foRig is the shared failover crash-test rig: an lvmd shard core
// shipping to one tracked replica, a lease holder renewing by heartbeat
// and the replica's monitor (both on one manual clock), and the
// lvmd.Failover every template promotes through, which is the code the
// standby daemon runs. The primary's shipper stays reachable after its
// "death": it is the zombie the fencing must refuse.
type foRig struct {
	t      template
	plan   fault.Plan
	clk    *lease.Manual
	holder *lease.Holder
	core   *lvmd.ShardCore
	ship   *logship.Shipper
	dial   logship.DialFunc
	r      *logship.Replica
	fo     *lvmd.Failover
	mon    *lease.Monitor
	wr     *fault.RNG

	slot   uint32            // arena offset of foSeg's slot
	shadow map[uint32]uint32 // acked complete-transaction state, by slot offset
	recs   uint64            // records the primary logged
	beats  uint64            // heartbeats broadcast

	verdict, note string
}

// newFoRig builds the rig, opens the tenant segment, connects the
// replica and broadcasts the grant beat. Close the shipper when done.
func newFoRig(t template, plan fault.Plan) (*foRig, error) {
	g := &foRig{
		t: t, plan: plan, clk: lease.NewManual(0), wr: fault.NewRNG(plan.Seed + 1),
		shadow: make(map[uint32]uint32), verdict: "RECOVERED",
	}
	ln, dial := logship.NewMemTransport()
	g.dial = dial
	cfg := foCore
	cfg.Disk = ramdisk.New()
	c, err := lvmd.NewCore(cfg, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("core err=%v", err)
	}
	g.core = c
	// The shipper is attached the way NewShard attaches it: serving the
	// core's election and bounding its compaction cuts.
	g.ship = logship.NewShipper(c.Sys, c.Arena, c.LogSeg, ln, logship.Config{FlushRecords: 8, Epoch: c.Mgr.Epoch()})
	c.SetShipper(g.ship)
	g.holder = lease.NewHolder(g.clk, leaseTTL, g.ship.Epoch())
	if err := g.start(); err != nil {
		g.ship.Close()
		return nil, err
	}
	return g, nil
}

// start opens foSeg (begin marker, two directory words, commit marker),
// connects the tracked replica and broadcasts the grant beat.
func (g *foRig) start() error {
	slot, _, err := g.core.Open(foSeg)
	if err != nil {
		return fmt.Errorf("open err=%v", err)
	}
	g.slot, g.recs = g.core.SlotOff(slot), 4
	if g.r, err = logship.NewReplica(g.dial, g.core.Arena.Size()); err != nil {
		return fmt.Errorf("replica err=%v", err)
	}
	g.r.TrackMarkers(lvmd.MarkerLimit)
	g.fo = lvmd.NewFailover(g.clk, leaseTTL, g.r)
	g.mon = g.fo.Monitor(0)
	if err := g.r.Connect(); err != nil {
		return fmt.Errorf("connect err=%v", err)
	}
	if !g.beat() {
		return errors.New("first renewal refused")
	}
	return nil
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
	return outcome{line: line, ok: g.verdict == "RECOVERED"}, g.core.Sys.Elapsed()
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

// off picks a word of the tenant slot.
func (g *foRig) off() uint32 {
	return uint32(g.wr.Intn(int(foCore.SlotSize/4))) * 4
}

// writes draws one transaction's stores.
func (g *foRig) writes(n int) []lvmd.Write {
	ws := make([]lvmd.Write, n)
	for j := range ws {
		ws[j] = lvmd.Write{Off: g.off(), Val: uint32(g.wr.Next())}
	}
	return ws
}

// commitTxn commits one client transaction on the core; acked ones
// enter the shadow the promoted image is diffed against.
func (g *foRig) commitTxn(acked bool) {
	ws := g.writes(1 + g.wr.Intn(g.t.maxBatch))
	if _, err := g.core.Commit(foSeg, ws); err != nil {
		g.fail("commit err=%v", err)
		return
	}
	g.recs += uint64(len(ws)) + 2 // the stores and their two markers
	if acked {
		for _, w := range ws {
			g.shadow[w.Off] = w.Val
		}
	}
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
// boundaries): promotion must roll it back. ShardCore.Commit always
// closes what it opens, so the stores go straight to the core's
// process; the core's next transaction (the unshipped tail) reuses the
// sequence on the dead primary only.
func (g *foRig) halfTxn() error {
	c := g.core
	c.P.Store32(c.Base(), c.Seq()+1) // begin marker, commit bit clear
	g.recs++
	for j := 0; j < 1+int(g.plan.Seed%3); j++ {
		c.P.Store32(c.Base()+core.Addr(g.slot+g.off()), uint32(g.wr.Next()))
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
// shadow against the promoted image, returning the boot shards and the
// differing word count.
func (g *foRig) promote(watermark uint64) ([]lvmd.BootShard, int, error) {
	errKill := errors.New("crashtest: simulated kill")
	kill := g.killPhase()
	if _, err := g.fo.Promote(logship.PromoteHooks{After: func(ph string) error {
		if ph == kill {
			return errKill
		}
		return nil
	}}); !errors.Is(err, errKill) {
		return nil, 0, fmt.Errorf("kill at %s not delivered: err=%v", kill, err)
	}
	boot, err := g.fo.Promote(logship.PromoteHooks{})
	if err != nil {
		return nil, 0, fmt.Errorf("promotion resume err=%v", err)
	}
	if got := g.r.LastSeq(); got != watermark {
		g.fail("watermark=%d want %d", got, watermark)
	}
	diffs := g.diff(boot[0].Img[g.slot:])
	if diffs != 0 {
		g.fail("acked words lost diff=%d", diffs)
	}
	return boot, diffs, nil
}

// diff counts the acked shadow words a copy of foSeg's slot lacks.
func (g *foRig) diff(slot []byte) int {
	n := 0
	for off, val := range g.shadow {
		if le32(slot[off:]) != val {
			n++
		}
	}
	return n
}

// probeZombie has a replica that learned the promoted epoch dial the
// ex-primary: the zombie's shipper must refuse it loudly (ErrFenced, not
// a silent hangup) and count the fenced hello, which it returns.
func (g *foRig) probeZombie(epoch uint32) uint64 {
	r2, err := logship.NewReplica(g.dial, g.core.Arena.Size())
	if err != nil {
		g.fail("fence replica err=%v", err)
		return 0
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
	return fenced
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

// checkBooted proves the booted server serves the promoted timeline,
// then drains it: every acked word reads back through lvmd.Client,
// client commits are acknowledged, a fresh replica subscribed with
// SubscribeDialer converges on the booted arena (its image digests to
// the drain manifest's), and the manifest serves the granted epoch.
func (g *foRig) checkBooted(srv *lvmd.Server, dial logship.DialFunc, epoch uint32) {
	img, err := g.driveBooted(dial)
	m := srv.Drain()
	if err != nil {
		g.fail("booted server %v", err)
		return
	}
	sh := m.Shards[0]
	if !m.Drained {
		g.fail("booted server drain err=%s", sh.Error)
	}
	if sh.Epoch != epoch {
		g.fail("booted server epoch=%d want the granted %d", sh.Epoch, epoch)
	}
	if d := sha256.Sum256(img[lvmd.MarkerLimit:]); hex.EncodeToString(d[:]) != sh.Digest {
		g.fail("fresh replica diverged from the booted server")
	}
}

// driveBooted is checkBooted's client and subscriber side; it returns
// the subscriber's image once every commit it saw acknowledged.
func (g *foRig) driveBooted(dial logship.DialFunc) ([]byte, error) {
	cl, err := lvmd.DialClient(dial)
	if err != nil {
		return nil, fmt.Errorf("dial err=%v", err)
	}
	defer cl.Close()
	// A fresh segment opens first: a booted server that lost its slot
	// directory would hand it foSeg's slot.
	for _, seg := range []uint64{foSeg + 1, foSeg} {
		if _, err := cl.Open(seg); err != nil {
			return nil, fmt.Errorf("open err=%v", err)
		}
	}
	data, err := cl.Read(foSeg, 0, foCore.SlotSize)
	if err != nil {
		return nil, fmt.Errorf("read err=%v", err)
	}
	if lost := g.diff(data); lost != 0 {
		return nil, fmt.Errorf("lost %d acked words", lost)
	}
	// The subscriber starts below the booted shard's log, so it is
	// caught up by snapshot; each commit after it joined is acked only
	// once it has the commit.
	r, err := logship.NewReplica(lvmd.SubscribeDialer(dial, 0), g.core.Arena.Size())
	if err != nil {
		return nil, fmt.Errorf("subscriber err=%v", err)
	}
	if err := r.Connect(); err != nil {
		return nil, fmt.Errorf("subscribe err=%v", err)
	}
	for i := 0; i < 4 && err == nil; i++ {
		err = cl.Commit(foSeg+uint64(i%2), g.writes(3))
	}
	r.Kill()
	if err != nil {
		return nil, fmt.Errorf("commit err=%v", err)
	}
	return r.Image(), nil
}

// withRig builds the failover rig for one plan and runs a scenario on
// it. The scenario returns its outcome fields, or an error when the rig
// itself could not go on; checks that fail are recorded with g.fail.
func withRig(t template, plan fault.Plan, scenario func(g *foRig) (string, error)) (outcome, uint64) {
	g, err := newFoRig(t, plan)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	defer g.ship.Close()
	fields, err := scenario(g)
	if err != nil {
		return failf(plan, "%v", err), 0
	}
	return g.outcome(fields)
}

// depth picks a scenario's transaction count for the matrix depth.
func depth(short bool, full, smoke int) int {
	if short {
		return smoke
	}
	return full
}

// Promotion is what one crash-during-promotion run measured.
type Promotion struct {
	Watermark, Head uint64        // acked records the promoted shard resumes from; the dead primary's head
	Rolled, Fenced  uint64        // words rolled back; hellos the zombie refused
	Epoch           uint32        // the granted epoch
	Diffs           int           // acked words missing from the promoted image
	Pause           time.Duration // host wall clock from the first promotion attempt to a serving lvmd.Server
	OK              bool          // every check held
	Fail            string        // the first failed check, when !OK
}

// crashPromotion proves the promotion handshake under fire: the primary
// ships an acked workload plus a half-replicated transaction, writes an
// unshipped tail and "dies"; its lease runs out, and the promotion is
// killed at the phase the seed selects (freeze/activate are candidate-
// side crashes, prepare/commit coordinator-side) and then resumed. The
// checks demand:
//
//   - no acked record lost: the promoted watermark equals the exact acked
//     sequence and every acked transaction's writes survive on the
//     promoted image (the half-replicated tail rolled back to its last
//     transaction boundary);
//   - measured bounded loss: exactly head − watermark, the records the
//     dead primary logged but never shipped;
//   - no split-brain: a replica of the promoted generation that dials
//     the zombie ex-primary is refused on epoch alone;
//   - the promoted image boots through lvmd.NewServer, the standby
//     daemon's own boot call, and serves (checkBooted).
func (g *foRig) crashPromotion(txns int) (Promotion, error) {
	if err := g.ackedTxns(txns); err != nil {
		return Promotion{}, err
	}
	if err := g.halfTxn(); err != nil {
		return Promotion{}, err
	}
	p := Promotion{Watermark: g.recs}
	p.Head = g.unshippedTail()
	if err := g.expire(); err != nil {
		return p, err
	}
	dir, err := os.MkdirTemp("", "crashtest-failover-")
	if err != nil {
		return p, fmt.Errorf("boot dir err=%v", err)
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	boot, diffs, err := g.promote(p.Watermark)
	if err != nil {
		return p, err
	}
	// The standby daemon's serve(boot) call. SyncReplicas makes each
	// commit ack wait for the subscribers, which is how checkBooted
	// knows its replica has caught up.
	srv, err := lvmd.NewServer(lvmd.ServerConfig{Dir: dir, Shards: len(boot), Boot: boot,
		Shard: lvmd.ShardConfig{Core: foCore, SyncReplicas: true, SyncWait: releaseWait,
			Ship: logship.Config{FlushRecords: 8}}})
	if err != nil {
		return p, fmt.Errorf("boot err=%v", err)
	}
	p.Pause = time.Since(t0)
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	p.Epoch, p.Diffs, p.Rolled = boot[0].Epoch, diffs, g.rolled()
	g.checkBooted(srv, dial, p.Epoch)
	p.Fenced = g.probeZombie(p.Epoch)
	p.OK, p.Fail = g.verdict == "RECOVERED", g.note
	return p, nil
}

// runFailover runs crashPromotion as a crash template. The pause is
// host wall clock, so it stays out of the outcome line: both executions
// of a plan must match byte-for-byte.
func runFailover(t template, plan fault.Plan, short bool) (outcome, uint64) {
	return withRig(t, plan, func(g *foRig) (string, error) {
		p, err := g.crashPromotion(depth(short, 48, 16))
		side := "coordinator"
		if k := g.killPhase(); k == logship.PhaseFreeze || k == logship.PhaseActivate {
			side = "candidate"
		}
		return fmt.Sprintf(
			"phase=%s side=%s watermark=%d head=%d lost=%d rolled=%d epoch=%d fenced=%d diff=%d",
			g.killPhase(), side, p.Watermark, p.Head, p.Head-p.Watermark, p.Rolled,
			p.Epoch, p.Fenced, p.Diffs), err
	})
}

// MeasurePromotion runs the crash-during-promotion scenario once for
// the failover bench: txns acked transactions, at a fixed seed whose
// kill lands in the freeze phase. An error means the rig could not run;
// a failed check reads OK=false.
func MeasurePromotion(txns int) (Promotion, error) {
	g, err := newFoRig(template{name: "failover/bench", maxBatch: 8}, fault.Plan{Seed: 0xFA170})
	if err != nil {
		return Promotion{}, err
	}
	defer g.ship.Close()
	return g.crashPromotion(txns)
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
	return withRig(t, plan, func(g *foRig) (string, error) { return g.leaseExpiry(depth(short, 48, 16)) })
}

func (g *foRig) leaseExpiry(txns int) (string, error) {
	errLost := errors.New("holder lost the lease mid-workload")
	if err := g.ackedTxns(txns); err != nil {
		return "", err
	}
	if !g.beat() {
		return "", errLost
	}
	if err := g.halfTxn(); err != nil {
		return "", err
	}
	watermark := g.recs
	if !g.beat() {
		return "", errLost
	}
	if err := g.waitBeats(); err != nil {
		return "", err
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
		return "", err
	}
	// Self-demotion: the resumed zombie's own holder measures the same
	// gap on its own clock and refuses to renew, permanently.
	if g.beat() || !g.holder.Lost() {
		g.fail("dead primary's holder renewed across the expiry gap")
	}
	boot, diffs, err := g.promote(watermark)
	if err != nil {
		return "", err
	}
	g.rolled()
	fenced := g.probeZombie(boot[0].Epoch)
	return fmt.Sprintf("phase=%s watermark=%d head=%d lost=%d beats=%d epoch=%d fenced=%d diff=%d",
		g.killPhase(), watermark, head, head-watermark, g.mon.Beats(), boot[0].Epoch, fenced, diffs), nil
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
	return withRig(t, plan, func(g *foRig) (string, error) { return g.leasePartition(depth(short, 32, 12)) })
}

func (g *foRig) leasePartition(txns int) (string, error) {
	if err := g.ackedTxns(txns); err != nil {
		return "", err
	}
	// The pause: the clock advances past the TTL with no renewals. The
	// primary process is alive the whole time — it just can't prove it.
	if err := g.expire(); err != nil {
		return "", err
	}
	boot, diffs, err := g.promote(g.recs)
	if err != nil {
		return "", err
	}

	// The pause heals; the old primary resumes mid-heartbeat-loop and
	// must not renew.
	if g.beat() || !g.holder.Lost() {
		g.fail("resumed primary renewed across the pause: two writable primaries")
	}
	// Its late beat — queued before the pause, delivered after — must
	// not re-arm the superseded generation's deadline.
	g.mon.Observe(logship.Beat{Kind: logship.BeatRenew, Epoch: boot[0].Epoch, Seq: 1, TTL: leaseTTL})
	g.mon.Observe(logship.Beat{Kind: logship.BeatRenew, Epoch: 1, Seq: 99, TTL: leaseTTL})
	if g.mon.Stale() != 1 {
		g.fail("late zombie beat not classified stale (stale=%d)", g.mon.Stale())
	}
	if g.mon.Epoch() != boot[0].Epoch {
		g.fail("monitor epoch=%d want the promoted %d", g.mon.Epoch(), boot[0].Epoch)
	}
	// And the refused zombie is told why.
	g.probeZombie(boot[0].Epoch)
	return fmt.Sprintf("phase=%s watermark=%d lost=%d stale=%d epoch=%d diff=%d",
		g.killPhase(), g.r.LastSeq(), g.recs-g.r.LastSeq(), g.mon.Stale(), boot[0].Epoch, diffs), nil
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
	return withRig(t, plan, func(g *foRig) (string, error) { return g.leaseDrop(depth(short, 32, 12)) })
}

func (g *foRig) leaseDrop(txns int) (string, error) {
	if err := g.ackedTxns(txns); err != nil {
		return "", err
	}
	if err := g.waitBeats(); err != nil {
		return "", err
	}
	// Pin beat 1's acknowledgement before the cut: that ack, dated by
	// its issue tick (0), is all the evidence the cut-off holder's
	// renewals will live on for exactly one TTL.
	if err := g.waitAck(1); err != nil {
		return "", err
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
		return "", err
	}
	g.probeZombie(boot[0].Epoch)
	return fmt.Sprintf("phase=%s demote_step=%d watermark=%d lost=%d beats=%d epoch=%d diff=%d",
		g.killPhase(), demoteStep, g.r.LastSeq(), g.recs-g.r.LastSeq(), g.mon.Beats(), boot[0].Epoch, diffs), nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
