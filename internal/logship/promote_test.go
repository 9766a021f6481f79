package logship

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lvm/internal/dsm"
	"lvm/internal/recovery"
)

// markerLimit mirrors lvmd.MarkerLimit: the first 16 bytes of the
// segment are the transaction-marker word the rollback ledger tracks.
const markerLimit = 16

// txnWriter issues complete marker-bracketed transactions against a
// producer, counting records so tests can assert exact watermarks.
type txnWriter struct {
	prod *dsm.LVMProducer
	seq  uint32
	recs uint64
}

// commit writes one transaction: open marker, n payload stores at
// distinct offsets past the marker region, commit marker.
func (w *txnWriter) commit(n int) {
	w.seq++
	w.prod.Write(0, w.seq)
	w.recs++
	for j := 0; j < n; j++ {
		off := uint32(markerLimit) + (uint32(j)*4+w.seq*28)%(shared-markerLimit)&^3
		w.prod.Write(off, 0xBEEF0000+w.seq<<4+uint32(j))
		w.recs++
	}
	w.prod.Write(0, w.seq|recovery.MarkerCommit)
	w.recs++
}

// open starts a transaction and leaves it uncommitted (no commit marker).
func (w *txnWriter) open(n int) {
	w.seq++
	w.prod.Write(0, w.seq)
	w.recs++
	for j := 0; j < n; j++ {
		off := uint32(markerLimit) + (uint32(j)*4+w.seq*28)%(shared-markerLimit)&^3
		w.prod.Write(off, 0xDEAD0000+w.seq<<4+uint32(j))
		w.recs++
	}
}

// TestAuthorityGrantLifecycle pins the coordinator invariants: exactly
// one grant validates at a time, Prepare is idempotent per candidate,
// and committing without a proposal is an explicit error.
func TestAuthorityGrantLifecycle(t *testing.T) {
	var a Authority
	if a.Validate(Grant{}) {
		t.Fatal("zero grant must never validate")
	}
	if _, err := a.CommitGrant(); err == nil {
		t.Fatal("commit without a prepared grant must fail")
	}
	g1 := a.Prepare("cand-a")
	if g1.Epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", g1.Epoch)
	}
	if again := a.Prepare("cand-a"); again != g1 {
		t.Fatalf("re-prepare for the same candidate changed the proposal: %+v != %+v", again, g1)
	}
	g2 := a.Prepare("cand-b")
	if g2 == g1 {
		t.Fatal("a different candidate must supersede the proposal")
	}
	cur, err := a.CommitGrant()
	if err != nil {
		t.Fatal(err)
	}
	if cur != g2 {
		t.Fatalf("committed %+v, want the prepared %+v", cur, g2)
	}
	if !a.Validate(g2) {
		t.Fatal("current grant must validate")
	}
	if a.Validate(g1) {
		t.Fatal("superseded proposal must not validate")
	}
	g3 := a.Prepare("cand-c")
	if g3.Epoch != 2 {
		t.Fatalf("next epoch = %d, want 2", g3.Epoch)
	}
	if _, err := a.CommitGrant(); err != nil {
		t.Fatal(err)
	}
	if a.Validate(g2) {
		t.Fatal("old grant must stop validating at CommitGrant")
	}
}

// TestPromoteZeroTail promotes a replica that acknowledged everything
// the dead primary ever logged: the watermark is the head, the measured
// loss is zero, and nothing needs rolling back. The promoted replica's
// next session against the zombie shipper is refused on epoch alone.
func TestPromoteZeroTail(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	r := connectReplica(t, dial)
	r.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 20; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	a := &Authority{Cur: Grant{Epoch: ship.Epoch(), Token: 7}}
	res, err := Promote(a, r, "standby", PromoteHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Watermark != w.recs {
		t.Fatalf("watermark = %d, want head %d (zero loss)", res.Watermark, w.recs)
	}
	if res.RolledBack != 0 {
		t.Fatalf("rolled back %d words, want 0 (no open transaction)", res.RolledBack)
	}
	if !a.Validate(res.Grant) {
		t.Fatal("promotion grant must validate")
	}
	if got := r.Epoch(); got != res.Grant.Epoch {
		t.Fatalf("replica epoch = %d, want granted %d", got, res.Grant.Epoch)
	}

	// The zombie ex-primary refuses the promoted replica's hello: its
	// generation is behind the granted epoch.
	reconnectErr := r.Connect()
	if reconnectErr == nil {
		r.Kill()
		t.Fatal("zombie shipper accepted a promoted replica")
	}
	if got := ship.Stats.FencedHellos.Load(); got == 0 {
		t.Fatal("zombie shipper did not fence the future-epoch hello")
	}
}

// TestPromoteRollsBackOpenTxn promotes a replica holding a
// half-replicated transaction: the freeze phase must undo it back to
// the last commit marker before the image can seed a primary.
func TestPromoteRollsBackOpenTxn(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	r := connectReplica(t, dial)
	r.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 3; i++ {
		w.commit(2)
	}
	w.open(2) // open marker + 2 payload words, never committed
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	a := &Authority{Cur: Grant{Epoch: ship.Epoch(), Token: 7}}
	res, err := Promote(a, r, "standby", PromoteHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RolledBack == 0 {
		t.Fatal("open transaction was not rolled back")
	}
	// The image must end at the last transaction boundary: the marker
	// word reads the final committed sequence, not the open one.
	img := r.Image()
	if got, want := get32(img), uint32(3)|recovery.MarkerCommit; got != want {
		t.Fatalf("marker word after rollback = %#x, want %#x", got, want)
	}
}

// TestPromoteAckAtCompactionCut promotes at a watermark that sits
// exactly on a compaction cut: every acked record has been cut from the
// physical log, so the logical sequence numbering (base + offset) is
// the only thing carrying the watermark forward. A shipper re-seeded at
// the grant must serve from it and catch a fresh replica up by snapshot.
func TestPromoteAckAtCompactionCut(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	r := connectReplica(t, dial)
	r.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 16; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Cut the whole acked prefix: the ack now sits exactly at the cut.
	if err := ship.Compacted(w.recs); err != nil {
		t.Fatal(err)
	}
	if got := ship.Base(); got != w.recs {
		t.Fatalf("compaction base = %d, want %d", got, w.recs)
	}

	a := &Authority{Cur: Grant{Epoch: ship.Epoch(), Token: 7}}
	res, err := Promote(a, r, "standby", PromoteHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Watermark != w.recs {
		t.Fatalf("watermark=%d, want the head %d", res.Watermark, w.recs)
	}

	ln2, dial2 := NewMemTransport()
	ship2, w2 := promotedPrimary(t, ln2, r, res, w.seq)
	if got, base := ship2.SealedSeq(), ship2.Base(); got != w.recs || base != w.recs {
		t.Fatalf("promoted shipper starts at seq %d base %d, want watermark %d", got, base, w.recs)
	}

	// A fresh replica (cursor far below the cut) converges by snapshot.
	r2 := connectReplica(t, dial2)
	r2.TrackMarkers(markerLimit)
	for i := 0; i < 4; i++ {
		w2.commit(1)
	}
	if err := ship2.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	r2.Kill()
	if err := dsm.Verify(w2.prod.Segment(), r2.Consumer(), shared); err != nil {
		t.Fatalf("fresh replica did not converge on the promoted primary: %v", err)
	}
	if got := r2.Stats.SnapshotsApplied.Load(); got == 0 {
		t.Fatal("catch-up across the cut did not use a snapshot")
	}
}

// promotedPrimary seeds a producer with the promoted replica's image and
// serves it through a plain shipper at the grant: epoch res.Grant.Epoch,
// logical cursor at res.Watermark. It returns the shipper and a writer
// that resumes the transaction sequence at seq.
func promotedPrimary(t *testing.T, ln net.Listener, r *Replica, res PromoteResult, seq uint32) (*Shipper, *txnWriter) {
	t.Helper()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8, Epoch: res.Grant.Epoch, StartSeq: res.Watermark})
	prod.Segment().RawWrite(0, r.Image())
	return ship, &txnWriter{prod: prod, seq: seq}
}

// TestPromoteLaggardCandidate promotes a candidate whose ack trails the
// other replica's (the laggard wins the promotion because the leader
// died too): the watermark is the candidate's own ack, and the
// better-replicated survivor must discard its unacked suffix by
// resyncing under the granted epoch with a shipper re-seeded at the
// grant.
func TestPromoteLaggardCandidate(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	var target atomic.Value // DialFunc: retargeted at the promoted primary later
	target.Store(DialFunc(dial))
	redial := func() (net.Conn, error) { return target.Load().(DialFunc)() }

	cand := connectReplica(t, DialFunc(redial))
	cand.TrackMarkers(markerLimit)
	ahead := connectReplica(t, DialFunc(redial))
	ahead.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 8; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	candMark := w.recs

	// The candidate goes dark; the other replica keeps acking.
	cand.Kill()
	for i := 0; i < 8; i++ {
		w.commit(3)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	head := w.recs
	ahead.Kill()
	if got := ahead.LastSeq(); got != head {
		t.Fatalf("survivor acked %d, want head %d", got, head)
	}

	a := &Authority{Cur: Grant{Epoch: ship.Epoch(), Token: 7}}
	res, err := Promote(a, cand, "laggard", PromoteHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Watermark != candMark {
		t.Fatalf("watermark = %d, want the candidate's ack %d", res.Watermark, candMark)
	}
	// The loss bound is head − candMark: records only the survivor
	// acknowledged, which the promoted timeline never holds.
	ln2, dial2 := NewMemTransport()
	ship2, w2 := promotedPrimary(t, ln2, cand, res, w.seq)

	// The survivor reconnects to the new primary. Its cursor is AHEAD of
	// the promoted watermark under a dead epoch, so the welcome forces a
	// full resync: the unacked suffix it holds is discarded, not merged.
	target.Store(DialFunc(dial2))
	if err := ahead.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w2.commit(1)
	}
	if err := ship2.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ahead.Kill()
	if err := dsm.Verify(w2.prod.Segment(), ahead.Consumer(), shared); err != nil {
		t.Fatalf("survivor did not converge on the promoted timeline: %v", err)
	}
	if got := ahead.Epoch(); got != res.Grant.Epoch {
		t.Fatalf("survivor epoch = %d, want granted %d", got, res.Grant.Epoch)
	}
}

// TestPromoteResumesAfterCoordinatorCrash kills the coordinator right
// after CommitGrant and runs Promote again: the second run must finish
// (burning one epoch is fine — epochs only move forward) and leave
// exactly one valid grant.
func TestPromoteResumesAfterCoordinatorCrash(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	r := connectReplica(t, dial)
	r.TrackMarkers(markerLimit)

	w := &txnWriter{prod: prod}
	for i := 0; i < 6; i++ {
		w.commit(2)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	a := &Authority{Cur: Grant{Epoch: ship.Epoch(), Token: 7}}
	boom := errors.New("coordinator crash")
	_, err := Promote(a, r, "standby", PromoteHooks{
		After: func(phase string) error {
			if phase == PhaseCommit {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("crash hook did not abort the promotion: %v", err)
	}

	res, err := Promote(a, r, "standby", PromoteHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Validate(res.Grant) {
		t.Fatal("resumed promotion's grant must validate")
	}
	if res.Watermark != w.recs {
		t.Fatalf("resumed watermark=%d, want %d", res.Watermark, w.recs)
	}
	if got := r.Epoch(); got != res.Grant.Epoch {
		t.Fatalf("replica epoch = %d, want %d", got, res.Grant.Epoch)
	}
}

// TestReplicaFencesStaleWelcome hand-crafts a shipper whose welcome
// carries a generation behind the replica's: the replica must refuse
// the session with ErrFenced rather than roll back behind the promoted
// timeline it acknowledged.
func TestReplicaFencesStaleWelcome(t *testing.T) {
	ln, dial := NewMemTransport()
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, _, err := readFrame(c); err != nil {
			return
		}
		c.Write(encodeFrame(typeWelcome, encodeWelcome(welcome{
			startSeq: 0,
			epoch:    2, // behind the replica's generation
			segSize:  shared,
		})))
	}()

	r, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	r.SetEpoch(5)
	err = r.Connect()
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale welcome error = %v, want ErrFenced", err)
	}
	if got := r.Stats.Fenced.Load(); got != 1 {
		t.Fatalf("fenced sessions = %d, want 1", got)
	}
}

// TestRetryDialerFlakyListener exercises the bounded-retry dialer
// against a listener that refuses the first dials: the retry loop must
// absorb the flake, and exhaustion must surface the last error.
func TestRetryDialerFlakyListener(t *testing.T) {
	var calls atomic.Int32
	flaky := func() (net.Conn, error) {
		if calls.Add(1) <= 3 {
			return nil, fmt.Errorf("connection refused (attempt %d)", calls.Load())
		}
		a, b := net.Pipe()
		go a.Close()
		return b, nil
	}
	dial := RetryDialer(flaky, RetryConfig{Attempts: 5, Base: time.Millisecond, Max: 4 * time.Millisecond})
	c, err := dial()
	if err != nil {
		t.Fatalf("retry did not absorb a 3-dial flake: %v", err)
	}
	c.Close()
	if got := calls.Load(); got != 4 {
		t.Fatalf("dial attempts = %d, want 4 (3 failures + 1 success)", got)
	}

	// Exhaustion: every attempt fails, the last error comes back wrapped.
	sentinel := errors.New("still down")
	calls.Store(0)
	down := func() (net.Conn, error) { calls.Add(1); return nil, sentinel }
	dial = RetryDialer(down, RetryConfig{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond})
	if _, err := dial(); !errors.Is(err, sentinel) {
		t.Fatalf("exhaustion error = %v, want wrapped %v", err, sentinel)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("dial attempts = %d, want the configured 3", got)
	}
}
