package lvmd

import (
	"fmt"

	"lvm/internal/lease"
	"lvm/internal/logship"
)

// Failover is the one promotion path: the standby daemon, the failover
// crash templates and the failover bench all promote through it. Per
// shard it holds the replica following the primary, the lease monitor
// fed from that replica's heartbeat frames, and the epoch authority the
// promotion commits its grant through. The authority lives as long as
// the Failover, so a promotion killed at any phase is resumed by calling
// Promote again: a grant that already committed stays committed, and
// the resume only moves the epoch forward (logship.Promote's
// idempotence argument).
//
// The authority is local to the standby: in the one-standby-per-primary
// topology the lease expiry IS the coordination, and the grant still
// bumps the epoch so the promoted shippers fence zombie-generation
// subscribers.
type Failover struct {
	shards []failoverShard
}

type failoverShard struct {
	rep  *logship.Replica
	mon  *lease.Monitor
	auth logship.Authority
}

// NewFailover arms lease detection on reps, one per shard: each replica
// gets a monitor on clock expecting renewals within ttl ticks, fed from
// the heartbeat frames of its subscription stream. Call it before the
// replicas connect, so their hellos advertise a lease observer.
func NewFailover(clock lease.Clock, ttl uint64, reps ...*logship.Replica) *Failover {
	f := &Failover{shards: make([]failoverShard, len(reps))}
	for i, r := range reps {
		m := lease.NewMonitor(clock, ttl)
		r.TrackLease(m.Observe)
		f.shards[i] = failoverShard{rep: r, mon: m}
	}
	return f
}

// Monitor returns shard i's lease monitor.
func (f *Failover) Monitor(i int) *lease.Monitor { return f.shards[i].mon }

// Expired reports whether every shard's monitor heard the primary's
// lease and then saw it run out. A monitor that never heard a beat never
// expires, so a standby that never reached its primary never promotes;
// and one shard still renewing means the primary still serves — a
// single wedged shard must not split writes across two daemons.
func (f *Failover) Expired() bool {
	for _, s := range f.shards {
		if !s.mon.Expired() {
			return false
		}
	}
	return len(f.shards) > 0
}

// Promote turns every shard replica into a bootable image at its acked
// watermark, or refuses with lease.ErrHeld while Expired is false. Each
// shard runs the logship.Promote handshake (freeze and roll back to the
// last transaction boundary, prepare and commit a grant one epoch above
// the dead primary's, activate) and its image is stamped with a
// committed marker (StampMarker). hooks reach every shard's handshake;
// an error from one aborts the call, and calling Promote again resumes.
// The watermark each shard landed at is its replica's LastSeq.
func (f *Failover) Promote(hooks logship.PromoteHooks) ([]BootShard, error) {
	if !f.Expired() {
		return nil, fmt.Errorf("%w: lvmd: promotion refused while a shard's lease is current or unheard", lease.ErrHeld)
	}
	boot := make([]BootShard, len(f.shards))
	for i := range f.shards {
		s := &f.shards[i]
		// The grant must land above the dead primary's generation as this
		// stream last saw it, by welcome or by heartbeat.
		if e := max(s.rep.Epoch(), s.mon.Epoch()); s.auth.Cur.Epoch < e {
			s.auth.Cur = logship.Grant{Epoch: e}
		}
		res, err := logship.Promote(&s.auth, s.rep, fmt.Sprintf("standby-%d", i), hooks)
		if err != nil {
			return nil, fmt.Errorf("lvmd: shard %d promotion: %w", i, err)
		}
		img := s.rep.Image()
		boot[i] = BootShard{Img: img, Seq: StampMarker(img, 0), Epoch: res.Grant.Epoch}
	}
	return boot, nil
}
