package logship

import "fmt"

// Promotion turns a surviving replica into the primary at its acked
// watermark. The coordinator state (Authority) is tiny and durable by
// contract — in production it would live in a lease service; in the
// crash tests it survives the simulated kill — and every phase of
// Promote is idempotent, so a coordinator that dies mid-promotion simply
// runs Promote again and finishes (possibly burning an extra epoch,
// which is harmless: epochs only need to move forward).
//
// The no-split-brain argument: exactly one Grant validates at any
// moment. Until CommitGrant the old primary's grant is current (there is
// one primary, even if dead); after it, only the candidate's. A zombie
// ex-primary that wakes up holds a grant that no longer validates, and
// its wire sessions are refused on epoch alone — replicas that learned
// the promoted generation refuse its stale welcome (ErrFenced), and its
// own listener refuses hellos from the future (FencedHellos).

// Grant is a fencing token: the authority's permission to act as primary
// for one epoch.
type Grant struct {
	Epoch uint32
	Token uint64
}

// Authority is the promotion coordinator: the single durable arbiter of
// which grant is current. Zero value: no primary granted yet.
type Authority struct {
	Cur      Grant
	prepared bool
	proposed Grant
	cand     string
}

// splitmix64 is the token mixer (deterministic, seeded by epoch+cand).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Prepare proposes the next grant for candidate cand. Re-preparing for
// the same candidate returns the same proposal (idempotent resume); a
// different candidate supersedes it.
func (a *Authority) Prepare(cand string) Grant {
	if a.prepared && a.cand == cand {
		return a.proposed
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(cand); i++ {
		h = (h ^ uint64(cand[i])) * 1099511628211
	}
	a.proposed = Grant{
		Epoch: a.Cur.Epoch + 1,
		Token: splitmix64(uint64(a.Cur.Epoch+1)<<32 ^ h),
	}
	a.cand = cand
	a.prepared = true
	return a.proposed
}

// CommitGrant installs the prepared grant as current: the moment of
// promotion. The old grant stops validating here, atomically.
func (a *Authority) CommitGrant() (Grant, error) {
	if !a.prepared {
		return Grant{}, fmt.Errorf("logship: commit without a prepared grant")
	}
	a.Cur = a.proposed
	a.prepared = false
	return a.Cur, nil
}

// Validate reports whether g is the current grant — the check every
// write path makes before acting as primary.
func (a *Authority) Validate(g Grant) bool { return g == a.Cur && g.Epoch != 0 }

// Promotion phase names, in order; PromoteHooks.After sees each one.
const (
	PhaseFreeze   = "freeze"
	PhasePrepare  = "prepare"
	PhaseCommit   = "commit"
	PhaseActivate = "activate"
)

// PromoteHooks injects crash points for the crash tests: After runs once
// the named phase's state has settled, and an error aborts the promotion
// right there (the simulated kill).
type PromoteHooks struct {
	After func(phase string) error
}

// PromoteResult reports a completed promotion.
type PromoteResult struct {
	Grant      Grant
	Watermark  uint64 // acked sequence the new primary serves from
	RolledBack int    // words undone to reach the last transaction boundary
}

// Promote runs the promotion state machine over replica r: freeze (end
// the session, roll half-replicated transaction state back to the last
// commit marker), prepare and commit a grant with a bumped epoch, then
// activate (teach the replica the granted generation so every session it
// opens from now on fences the zombie). Safe to call again after a
// crash at any phase. The loss bound is the dead primary's head minus
// Watermark; only a caller that knows the head can compute it.
func Promote(a *Authority, r *Replica, cand string, hooks PromoteHooks) (PromoteResult, error) {
	after := hooks.After
	if after == nil {
		after = func(string) error { return nil }
	}
	// Freeze: no session may be applying records while we settle state.
	r.Kill()
	rolled, err := r.Rollback()
	if err != nil {
		return PromoteResult{}, err
	}
	if err := after(PhaseFreeze); err != nil {
		return PromoteResult{}, err
	}
	g := a.Prepare(cand)
	if err := after(PhasePrepare); err != nil {
		return PromoteResult{}, err
	}
	g, err = a.CommitGrant()
	if err != nil {
		return PromoteResult{}, err
	}
	if err := after(PhaseCommit); err != nil {
		return PromoteResult{}, err
	}
	r.SetEpoch(g.Epoch)
	if err := after(PhaseActivate); err != nil {
		return PromoteResult{}, err
	}
	return PromoteResult{Grant: g, Watermark: r.LastSeq(), RolledBack: rolled}, nil
}
