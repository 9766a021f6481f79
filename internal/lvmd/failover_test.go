package lvmd

import (
	"errors"
	"net"
	"testing"
	"time"

	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/recovery"
)

// TestFailoverPromotesOnlyAfterExpiry pins lvmd.Failover on a
// manual clock: promotion refuses with lease.ErrHeld while any shard's
// monitor is unheard or current, every shard promotes once all have
// expired, and a promotion killed at each handshake phase resumes with
// the epochs the failover crash templates report — a kill before the
// grant commits resumes at epoch 2, one after it burns epoch 2 and
// resumes at 3. Promoted images carry a committed marker even at seq 0.
func TestFailoverPromotesOnlyAfterExpiry(t *testing.T) {
	const ttl = 100
	beat := logship.Beat{Kind: logship.BeatGrant, Epoch: 1, Seq: 1, TTL: ttl}
	want := map[string]uint32{
		logship.PhaseFreeze: 2, logship.PhasePrepare: 2,
		logship.PhaseCommit: 3, logship.PhaseActivate: 3,
	}
	for _, phase := range []string{logship.PhaseFreeze, logship.PhasePrepare,
		logship.PhaseCommit, logship.PhaseActivate} {
		clk := lease.NewManual(0)
		reps := make([]*logship.Replica, 2)
		for i := range reps {
			// Promotion runs disconnected; these replicas never dial.
			r, err := logship.NewReplica(func() (net.Conn, error) { return nil, errors.New("unused") }, 4096)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = r
		}
		fo := NewFailover(clk, ttl, reps...)
		held := func(when string) {
			t.Helper()
			if fo.Expired() {
				t.Fatalf("%s: Expired() = true", when)
			}
			if _, err := fo.Promote(logship.PromoteHooks{}); !errors.Is(err, lease.ErrHeld) {
				t.Fatalf("%s: Promote = %v, want ErrHeld", when, err)
			}
		}
		clk.Advance(ttl + 1)
		held("no monitor heard a beat")
		fo.Monitor(0).Observe(beat)
		clk.Advance(ttl + 1)
		held("shard 1 unheard")
		fo.Monitor(1).Observe(beat)
		held("shard 1 current")
		clk.Advance(ttl + 1)
		if !fo.Expired() {
			t.Fatal("every lease ran out but Expired() = false")
		}

		errKill := errors.New("killed")
		if _, err := fo.Promote(logship.PromoteHooks{After: func(ph string) error {
			if ph == phase {
				return errKill
			}
			return nil
		}}); !errors.Is(err, errKill) {
			t.Fatalf("kill at %s: Promote = %v, want the injected kill", phase, err)
		}
		boot, err := fo.Promote(logship.PromoteHooks{})
		if err != nil {
			t.Fatalf("resume after a kill at %s: %v", phase, err)
		}
		if len(boot) != 2 {
			t.Fatalf("promoted %d shards, want 2", len(boot))
		}
		// The kill lands on shard 0, the first to reach the phase.
		if boot[0].Epoch != want[phase] || boot[1].Epoch != 2 {
			t.Fatalf("kill at %s: epochs %d/%d, want %d/2", phase, boot[0].Epoch, boot[1].Epoch, want[phase])
		}
		for i, b := range boot {
			if b.Seq != 0 || get32(b.Img) != recovery.MarkerCommit {
				t.Fatalf("shard %d: seq %d marker %#x, want a committed seq-0 marker", i, b.Seq, get32(b.Img))
			}
		}
	}
}

// TestStampMarker pins the one marker stamp: the resumed sequence is the
// larger of the image's marker and the replayed LastSeq, the commit bit
// is always set — seq 0 included — and RecoverImage of a shard with no
// history returns such an image.
func TestStampMarker(t *testing.T) {
	img := make([]byte, 8)
	for _, c := range []struct{ marker, last, want uint32 }{
		{0, 0, 0},
		{5, 7, 7},                         // open marker, replay went further
		{9 | recovery.MarkerCommit, 3, 9}, // checkpoint captured more than the replay
	} {
		put32(img, c.marker)
		if got := StampMarker(img, c.last); got != c.want || get32(img) != c.want|recovery.MarkerCommit {
			t.Fatalf("StampMarker(%#x, %d) = %d, marker %#x; want %d", c.marker, c.last, got, get32(img), c.want)
		}
	}
	cfg, tail := testCfg(t, t.TempDir())
	rimg, info, err := RecoverImage(cfg, tail)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 0 || get32(rimg) != recovery.MarkerCommit {
		t.Fatalf("empty-shard recovery: seq %d marker %#x, want a committed seq-0 marker", info.Seq, get32(rimg))
	}
}

// TestPromoteFromRecoveredPrimary is the in-process shape of soak phase
// C with the hard twist: the primary boots with PRE-EXISTING state, so
// standby replicas can only seed correctly via snapshot catch-up — the
// truncated log never contained the earlier arena image. A shipper
// whose logical cursor started at zero would stream the log tail alone,
// the replicas would miss the recovered slot directory, and a server
// booted from their images would route segments to the wrong slots.
// Regression for exactly that bug: NewShard must seed Ship.StartSeq
// from the recovered commit counter.
func TestPromoteFromRecoveredPrimary(t *testing.T) {
	dir := t.TempDir()
	core := CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
		AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024}
	mk := func(sync bool) (*Server, logship.DialFunc) {
		srv, err := NewServer(ServerConfig{
			Dir: dir, Shards: 2,
			Shard:        ShardConfig{Core: core, SyncReplicas: sync},
			StallTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, dial := logship.NewMemTransport()
		srv.Serve(ln)
		return srv, dial
	}

	// Build pre-existing state (phase A/B stand-in), then drain.
	srv0, dial0 := mk(false)
	if _, _, err := RunLoad(LoadConfig{Dial: dial0, Clients: 32, Segments: 8,
		Duration: 500 * time.Millisecond, StoresPerCommit: 4, VerifyEvery: 8}); err != nil {
		t.Fatal(err)
	}
	srv0.Drain()

	// Recover with sync replication, attach standby replicas (which must
	// arrive by snapshot), and load again.
	srv, dial := mk(true)
	arena, _ := core.ArenaSize()
	reps := make([]*logship.Replica, 2)
	for i := range reps {
		d := SubscribeDialer(dial, uint32(i))
		r, err := logship.NewReplica(d, arena)
		if err != nil {
			t.Fatal(err)
		}
		r.TrackMarkers(MarkerLimit)
		if err := r.Connect(); err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	time.Sleep(100 * time.Millisecond)

	res, model, err := RunLoad(LoadConfig{Dial: dial, Clients: 32, Segments: 8,
		Duration: 800 * time.Millisecond, StoresPerCommit: 4, VerifyEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 || res.Deaths != 0 {
		t.Fatalf("load under sync replication: acked=%d deaths=%d", res.Acked, res.Deaths)
	}

	// Promote: roll each replica back to its last committed marker,
	// stamp the commit word, and boot a fresh server from the images —
	// the freeze, rollback and stamp Failover.Promote runs, minus the
	// lease gate this lease-less primary never arms.
	boot := make([]BootShard, 2)
	for i, r := range reps {
		r.Kill()
		if _, err := r.Rollback(); err != nil {
			t.Fatal(err)
		}
		if r.Stats.SnapshotsApplied.Load() == 0 {
			t.Fatalf("replica %d seeded without a snapshot: recovered state was never shipped", i)
		}
		img := r.Image()
		boot[i] = BootShard{Img: img, Seq: StampMarker(img, 0), Epoch: r.Epoch() + 1}
	}
	srv.Drain()

	srv2, err := NewServer(ServerConfig{
		Dir: t.TempDir(), Shards: 2,
		Shard:        ShardConfig{Core: core},
		StallTimeout: 2 * time.Second,
		Boot:         boot,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln2, dial2 := logship.NewMemTransport()
	srv2.Serve(ln2)
	checked, bad, err := VerifyModel(dial2, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("promoted server lost acked state: %d/%d mismatches, e.g. %s",
			len(bad), checked, bad[0])
	}
	if checked == 0 {
		t.Fatal("model verified nothing")
	}
	srv2.Drain()
}

// TestPromotedEpochSurvivesRestart pins the promoted-epoch restart
// fence-out fix. A daemon booted from a promotion grant serves the
// granted epoch E — typically far above its checkpoint generation. The
// old code derived a restarted daemon's epoch from the generation
// alone, so after a drain and restart (no Boot) the daemon came back
// BELOW E and every standby replica floored at E refused it as a
// zombie (ErrFenced), permanently fencing out the legitimate primary.
// Now the grant is stamped into the checkpoint header and a restart
// elects strictly past it.
func TestPromotedEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	core := CoreConfig{Slots: 16, SlotSize: 512, LogPages: 32}
	const granted = uint32(40) // far above any checkpoint generation here
	arena, err := core.ArenaSize()
	if err != nil {
		t.Fatal(err)
	}

	// Boot from a promotion: a (blank) promoted image under grant epoch E.
	srv, err := NewServer(ServerConfig{
		Dir: dir, Shards: 1,
		Shard:        ShardConfig{Core: core},
		StallTimeout: 2 * time.Second,
		Boot:         []BootShard{{Img: make([]byte, arena), Seq: 0, Epoch: granted}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := srv.shards[0].Shipper.Epoch(); e != granted {
		t.Fatalf("promoted boot serves epoch %d, granted %d", e, granted)
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	c, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(1, []Write{{Off: 0, Val: 0xAB}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	rep := srv.Drain()
	if got := rep.Shards[0].Epoch; got != granted {
		t.Fatalf("drain manifest records epoch %d, granted %d", got, granted)
	}

	// Restart from the daemon's own files, no Boot: the serving epoch
	// must come back strictly above the grant.
	srv2, err := NewServer(ServerConfig{
		Dir: dir, Shards: 1,
		Shard:        ShardConfig{Core: core},
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := srv2.shards[0].Shipper.Epoch(); e <= granted {
		t.Fatalf("restart serves epoch %d, not past granted %d: replicas floored at the grant fence it out", e, granted)
	}
	ln2, dial2 := logship.NewMemTransport()
	srv2.Serve(ln2)

	// A standby replica floored at the granted epoch — one that followed
	// the promoted daemon before the restart — must resubscribe.
	r, err := logship.NewReplica(SubscribeDialer(dial2, 0), arena)
	if err != nil {
		t.Fatal(err)
	}
	r.TrackMarkers(MarkerLimit)
	r.SetEpoch(granted)
	if err := r.Connect(); err != nil {
		t.Fatalf("standby floored at the granted epoch cannot resubscribe: %v", err)
	}
	r.Kill()
	srv2.Drain()
}

// TestRestartRenumbersShipEpoch pins the cross-boot fencing rule: each
// recovered boot adopts the checkpoint generation as its shipper epoch,
// so a subscriber of an earlier boot can never silently resume against
// a renumbered log.
func TestRestartRenumbersShipEpoch(t *testing.T) {
	dir := t.TempDir()
	core := CoreConfig{Slots: 16, SlotSize: 512, LogPages: 32,
		AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024}
	mk := func() (*Server, logship.DialFunc) {
		srv, err := NewServer(ServerConfig{
			Dir: dir, Shards: 1,
			Shard:        ShardConfig{Core: core},
			StallTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, dial := logship.NewMemTransport()
		srv.Serve(ln)
		return srv, dial
	}

	srv, dial := mk()
	first := srv.shards[0].Shipper.Epoch()
	c, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(1, []Write{{Off: 0, Val: 0xEE}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Drain()

	srv2, _ := mk()
	second := srv2.shards[0].Shipper.Epoch()
	srv2.Drain()
	if second <= first {
		t.Fatalf("restart epoch %d did not advance past %d", second, first)
	}
}
