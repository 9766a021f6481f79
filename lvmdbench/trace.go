package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"lvm/internal/core"
	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

// unaccountedTolerance bounds the share of the replay's per-batch wall
// time that no span covers. The spans tile each batch, so the remainder
// is timer overhead and the replay's own glue between calls: this bounds
// how much of the batch the spans miss, not whether the replay still
// makes the calls the daemon makes. tailTolerance checks that against
// the daemon: the replay's tail bytes per commit must match the drain
// manifest's, or the replay no longer logs what a shard logs.
const (
	unaccountedTolerance = 0.05
	tailTolerance        = 0.05
)

// spans are the replay's per-layer busy times, summed over batches. A
// span brackets the calls into one layer's public functions within a
// batch: a frame encode or decode loop, each Commit or Read, and each
// fence, ship, wait and compaction call.
type spans struct {
	encode, decode, apply, read, drain, tail, flush, ack, compact time.Duration

	wall                                  time.Duration // per-batch wall, summed
	cycleTime                             time.Duration // the MaybeCompact calls that compacted
	batches, ackBatches, cycles           int
	frames, ops, commits, stores, readOps int
	ackCommits                            int
	shipBytes                             int64 // replica stream bytes while attached
}

func (s *spans) covered() time.Duration {
	return s.encode + s.decode + s.apply + s.read + s.drain + s.tail + s.flush + s.ack + s.compact
}

// timed runs fn and adds its duration to *d.
func timed(d *time.Duration, fn func()) {
	t := time.Now()
	fn()
	*d += time.Since(t)
}

// replayer drives one shard's layers in-process, in the order a shard
// does: decode the session's frames, apply every commit, drain the
// logger, mirror and fsync the tail, ship, wait for the replica when
// one is attached, serve reads, encode the replies, then compact.
type replayer struct {
	b     *bench
	core  *lvmd.ShardCore
	ship  *logship.Shipper
	rep   *logship.Replica
	shipN atomic.Int64
	dial  logship.DialFunc
	segs  map[uint64]bool
	words map[uint64][]uint32 // the replay's own acked model
	src   *gen
	// userBytes counts every byte of user data committed to the core.
	userBytes int64
}

// nextOp draws the stream's next op routed to the replayed shard.
func (r *replayer) nextOp(readFrac float64) op {
	for {
		o := r.src.next(readFrac)
		if r.segs[o.seg] {
			return o
		}
	}
}

// hottestShard is the shard the nominal stream loads most.
func hottestShard(wl workload, seed int64) int {
	g := newGen(wl, seed)
	var n [numShards]int
	for i := 0; i < 20000; i++ {
		n[homeShard(g.next(wl.readFrac).seg)]++
	}
	best := 0
	for s := range n {
		if n[s] > n[best] {
			best = s
		}
	}
	return best
}

// replay runs the traced replay and adds its per-layer metrics. The
// batch size is the commits per fence the end-to-end run observed.
func (b *bench) replay(commitsPerBatch float64, budget time.Duration) error {
	dir := filepath.Join(b.base, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	disk, err := lvmd.OpenFileDisk(filepath.Join(dir, "replay.ckpt"))
	if err != nil {
		return err
	}
	defer disk.Close()
	tail, err := lvmd.OpenTail(filepath.Join(dir, "replay.tail"))
	if err != nil {
		return err
	}
	defer tail.Close()
	cfg := b.coreConfig()
	cfg.Disk, cfg.Tail = disk, tail
	c, err := lvmd.NewCore(cfg, nil, 0)
	if err != nil {
		return err
	}
	ln, dial := logship.NewMemTransport()
	defer ln.Close()
	ship := logship.NewShipper(c.Sys, c.Arena, c.LogSeg, ln, logship.Config{Epoch: c.Mgr.Epoch()})
	defer ship.Close()
	c.SetShipper(ship)
	c.EnableTuning()

	shard := hottestShard(b.wl, b.seed)
	r := &replayer{b: b, core: c, ship: ship, segs: map[uint64]bool{},
		words: map[uint64][]uint32{}, src: newGen(b.wl, b.seed)}
	r.dial = func() (net.Conn, error) {
		nc, err := dial()
		if err != nil {
			return nil, err
		}
		return countConn{nc, &r.shipN}, nil
	}
	for s := uint64(1); s <= numSegments; s++ {
		if homeShard(s) == shard {
			if _, _, err := c.Open(s); err != nil {
				return err
			}
			r.segs[s] = true
			r.words[s] = make([]uint32, slotWords)
		}
	}
	if err := c.SyncBatch(); err != nil {
		return err
	}
	// Warm-up, untimed: the preload's commits in large batches, then more
	// of the same, until the log sits just below the compaction trigger,
	// so the measured batches run through at least one compaction.
	trigger := float64(uint64(logPages) * core.PageSize / 2)
	offset := func() float64 { return float64(c.Sys.K.LogAppendOffset(c.LogSeg)) }
	warm := time.Now()
	for k := 16; offset() < 0.9*trigger; {
		if time.Since(warm) > 60*time.Second {
			return fmt.Errorf("replay warm-up did not reach the compaction trigger")
		}
		before := offset()
		batch := make([]op, 0, k)
		for len(batch) < k {
			batch = append(batch, r.nextOp(0))
		}
		if err := r.batch(batch, &spans{}); err != nil {
			return err
		}
		// Halve the batch while the next one could overshoot into a
		// compaction, so the warm-up lands just below the trigger.
		if after := offset(); after+(after-before) >= trigger && k > 1 {
			k /= 2
		}
	}
	if b.wl.sync {
		if err := r.attach(); err != nil {
			return err
		}
	}

	main := &spans{}
	start := time.Now()
	for n := 0; ; n++ {
		if main.cycles >= 2 && main.batches >= 200 || main.cycles >= 1 && time.Since(start) > budget {
			break
		}
		if time.Since(start) > 3*budget {
			return fmt.Errorf("replay ran %v without a compaction", time.Since(start).Round(time.Millisecond))
		}
		if err := r.batch(r.take(commitsPerBatch, n), main); err != nil {
			return err
		}
	}
	shipping := main
	if !b.wl.sync {
		// The shipping layer's subscriber cost, over the same stream:
		// attach one replica and replay a further stretch of batches.
		if err := r.attach(); err != nil {
			return err
		}
		shipping = &spans{}
		for n := 0; n < 200 && shipping.wall < budget/4; n++ {
			if err := r.batch(r.take(commitsPerBatch, n), shipping); err != nil {
				return err
			}
		}
	}
	reads := main
	if main.readOps == 0 {
		reads = &spans{}
		if err := r.readProbe(reads); err != nil {
			return err
		}
	}
	if err := r.verify(); err != nil {
		return err
	}

	m := b.res.metrics
	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	ns := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	m["lvmd.apply_ns_per_store"] = ns(main.apply, main.stores)
	m["lvmd.read_ns_per_op"] = ns(reads.read, reads.readOps)
	m["lvmd.fence_drain_us"] = us(main.drain, main.batches)
	m["lvmd.fence_tail_us"] = us(main.tail, main.batches)
	m["logship.frame_encode_ns"] = ns(main.encode, main.frames)
	m["logship.frame_decode_ns"] = ns(main.decode, main.frames)
	m["logship.frames_per_op"] = float64(main.frames) / float64(main.ops)
	m["logship.flush_us"] = us(main.flush, main.batches)
	m["logship.ack_wait_us"] = us(shipping.ack, shipping.ackBatches)
	m["logship.bytes_per_commit"] = float64(shipping.shipBytes) / float64(shipping.ackCommits)
	m["compact.cycle_ms"] = us(main.cycleTime, main.cycles) / 1e3
	// Compaction's share of the writes, over everything the replay
	// committed to this core: its log started empty, so cycles per byte
	// follow from records per commit and the log size, as in the daemon.
	snap := c.Sys.MetricsSnapshot().Counters
	m["compact.cycles_per_mb"] = float64(snap["compact.truncations"]) / (float64(r.userBytes) / 1e6)
	m["compact.snapshot_bytes_per_user_byte"] = float64(snap["compact.snapshot_bytes"]) / float64(r.userBytes)
	replayTail := float64(snap["lvmd.tail_bytes"]) / float64(snap["lvmd.commits"])
	b.res.detail["replay_tail_bytes_per_commit"] = replayTail
	if d := m["lvmd.tail_bytes_per_commit"]; math.Abs(replayTail-d) > tailTolerance*d {
		b.problem("trace: replay mirrors %.1f tail bytes per commit, the daemon %.1f (tolerance %.2f)",
			replayTail, d, tailTolerance)
	}
	m["trace.unaccounted_frac"] = float64(main.wall-main.covered()) / float64(main.wall)
	b.res.detail["replay"] = map[string]any{"shard": shard, "batches": main.batches,
		"commits": main.commits, "reads": main.readOps, "compactions": main.cycles,
		"wall_ms": main.wall.Milliseconds(), "shipping_batches": shipping.ackBatches}
	if f := m["trace.unaccounted_frac"]; f > unaccountedTolerance || f < 0 {
		b.problem("trace: spans leave %.3f of the batch wall time unaccounted (tolerance %.2f)",
			f, unaccountedTolerance)
	}
	return nil
}

func (b *bench) coreConfig() lvmd.CoreConfig {
	// cmd/lvmd's defaults for everything the benchmark does not set.
	return lvmd.CoreConfig{Slots: slotsFlag, SlotSize: slotSize, LogPages: logPages,
		AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024}
}

// take draws the next batch: its share of commits at the observed
// average (batch n ends at commit floor((n+1)·B)), with the reads the
// stream interleaves between them.
func (r *replayer) take(perBatch float64, n int) []op {
	want := int(math.Floor(float64(n+1)*perBatch)) - int(math.Floor(float64(n)*perBatch))
	if want < 1 {
		want = 1
	}
	var batch []op
	for commits := 0; commits < want; {
		o := r.nextOp(r.b.wl.readFrac)
		if !o.read {
			commits++
		}
		batch = append(batch, o)
	}
	return batch
}

// attach subscribes one replica and lets it catch up, untimed.
func (r *replayer) attach() error {
	size, err := r.b.coreConfig().ArenaSize()
	if err != nil {
		return err
	}
	rep, err := logship.NewReplica(r.dial, size)
	if err != nil {
		return err
	}
	rep.TrackMarkers(lvmd.MarkerLimit)
	if err := rep.Connect(); err != nil {
		return err
	}
	r.rep = rep
	if err := r.ship.FlushAll(); err != nil {
		return err
	}
	return r.ship.WaitAcked(r.ship.SealedSeq(), 10*time.Second)
}

// batch replays one fence's worth of ops and adds its spans to sp.
func (r *replayer) batch(ops []op, sp *spans) error {
	c := r.core
	seed := r.b.seed
	writes := make([][]lvmd.Write, len(ops))
	for i := range ops {
		writes[i] = make([]lvmd.Write, 0, ops[i].storeCount())
	}
	data := make([][]byte, len(ops))
	seqs := make([]uint32, len(ops))
	shipped := r.shipN.Load()
	var buf bytes.Buffer
	buf.Grow(64 * len(ops))
	var err error
	t0 := time.Now()

	// Session: the client's request frames, then the daemon's decode of
	// them into each commit's buffered writes.
	frames := 0
	timed(&sp.encode, func() {
		for i := range ops {
			o := &ops[i]
			if o.read {
				buf.Write(readReqFrame(o.seg, 4*uint32(o.base), 4*uint32(o.nwords)))
				frames++
				continue
			}
			o.each(seed, func(w, v uint32) { buf.Write(storeFrame(o.seg, 4*w, v)) })
			buf.Write(commitFrame(o.seg, uint64(o.id)))
			frames += o.storeCount() + 1
		}
	})
	timed(&sp.decode, func() {
		for i := 0; i < len(ops) && err == nil; {
			var typ byte
			var p []byte
			if typ, p, err = logship.ReadFrame(&buf); err != nil {
				break
			}
			switch typ {
			case logship.FrameStore:
				writes[i] = append(writes[i], lvmd.Write{Off: le.Uint32(p[8:]), Val: le.Uint32(p[12:])})
			case logship.FrameCommit, logship.FrameRead:
				i++
			}
		}
	})
	if err != nil {
		return err
	}

	// Shard: apply, fence, ship, serve reads.
	for i := range ops {
		if !ops[i].read {
			timed(&sp.apply, func() { seqs[i], err = c.Commit(ops[i].seg, writes[i]) })
			if err != nil {
				return err
			}
		}
	}
	timed(&sp.drain, func() { c.Sys.Sync() })
	timed(&sp.tail, func() { err = c.SyncBatch() })
	if err != nil {
		return err
	}
	timed(&sp.flush, func() { err = r.ship.FlushAll() })
	if err != nil {
		return err
	}
	if r.rep != nil {
		timed(&sp.ack, func() { err = r.ship.WaitAcked(r.ship.SealedSeq(), 2*time.Second) })
		if err != nil {
			return err
		}
	}
	for i := range ops {
		if o := &ops[i]; o.read {
			timed(&sp.read, func() { data[i], err = c.Read(o.seg, 4*uint32(o.base), 4*uint32(o.nwords)) })
			if err != nil {
				return err
			}
		}
	}

	// Replies: encoded by the daemon, decoded by the client.
	timed(&sp.encode, func() {
		for i := range ops {
			if o := &ops[i]; o.read {
				buf.Write(readRespFrame(o.seg, 4*uint32(o.base), data[i]))
			} else {
				buf.Write(commitRespFrame(o.seg, uint64(o.id), seqs[i]))
			}
		}
	})
	timed(&sp.decode, func() {
		for range ops {
			if _, _, err = logship.ReadFrame(&buf); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	frames += len(ops)

	var ran bool
	var compact time.Duration
	timed(&compact, func() { ran, err = c.MaybeCompact() })
	if err != nil {
		return err
	}
	sp.wall += time.Since(t0)

	// Bookkeeping and checks, outside the batch's wall time.
	sp.compact += compact
	if ran {
		sp.cycles++
		sp.cycleTime += compact
	}
	sp.batches++
	sp.frames += frames
	sp.ops += len(ops)
	if r.rep != nil {
		sp.ackBatches++
		sp.ackCommits += len(ops) - countReads(ops)
		sp.shipBytes += r.shipN.Load() - shipped
	}
	// A shard serves its reads after the batch's commits, so reads see
	// the model with every commit of the batch applied.
	for i := range ops {
		if o := &ops[i]; !o.read {
			sp.commits++
			sp.stores += o.storeCount()
			r.userBytes += int64(4 * o.storeCount())
			words := r.words[o.seg]
			o.each(seed, func(w, v uint32) { words[w] = v })
		}
	}
	for i := range ops {
		o := &ops[i]
		if !o.read {
			continue
		}
		sp.readOps++
		words := r.words[o.seg]
		for k := 0; k < int(o.nwords); k++ {
			if got, want := le.Uint32(data[i][4*k:]), words[int(o.base)+k]; got != want {
				return fmt.Errorf("replay read seg %d word %d: got %#x, model %#x",
					o.seg, int(o.base)+k, got, want)
			}
		}
	}
	return nil
}

func countReads(ops []op) int {
	n := 0
	for i := range ops {
		if ops[i].read {
			n++
		}
	}
	return n
}

// readProbe times 4-word reads over the replayed segments, for mixes
// whose stream has none.
func (r *replayer) readProbe(sp *spans) error {
	segs := make([]uint64, 0, len(r.segs))
	for s := range r.segs {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i := 0; i < 4096; i++ {
		s := segs[i%len(segs)]
		off := uint32(i*readWords*4) % slotSize
		var data []byte
		var err error
		timed(&sp.read, func() { data, err = r.core.Read(s, off, readWords*4) })
		if err != nil {
			return err
		}
		for k := 0; k < readWords; k++ {
			if got, want := le.Uint32(data[4*k:]), r.words[s][off/4+uint32(k)]; got != want {
				return fmt.Errorf("replay probe seg %d word %d: got %#x, model %#x", s, off/4+uint32(k), got, want)
			}
		}
		sp.readOps++
	}
	return nil
}

// verify reads every replayed segment whole against the replay's model
// and, when a replica is attached, checks that it holds the same bytes.
func (r *replayer) verify() error {
	for s, words := range r.words {
		data, err := r.core.Read(s, 0, slotSize)
		if err != nil {
			return err
		}
		for w, want := range words {
			if got := le.Uint32(data[4*w:]); got != want {
				return fmt.Errorf("replay seg %d word %d: got %#x, model %#x", s, w, got, want)
			}
		}
	}
	if r.rep == nil {
		return nil
	}
	r.rep.Kill()
	img := r.rep.Image()
	arena := make([]byte, len(img))
	r.core.Arena.ReadInto(0, arena)
	if !bytes.Equal(img[lvmd.MarkerLimit:], arena[lvmd.MarkerLimit:]) {
		return fmt.Errorf("replica image differs from the replayed arena")
	}
	return nil
}
