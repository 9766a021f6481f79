package lvmd

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/metrics"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// MarkerLimit is the marker-word area of every shard arena: stores below
// it drive the recovery marker protocol (one transaction per client
// commit), exactly as internal/rlvm and the crashtest log workload use
// it.
const MarkerLimit = uint32(16)

// dirEntryBytes is one slot-directory entry: the tenant segment ID (0 =
// free). The directory lives in the arena right after the marker area
// and is written with logged stores inside the open transaction, so slot
// assignments recover with the data — no side-channel catalog to keep
// consistent.
const dirEntryBytes = uint32(8)

// Directory entry flag bits. Segment IDs must stay below receivingBit;
// the top two bits carry migration state, which recovers with the data
// because the entry is rewritten inside marker transactions:
//
//	id            — this shard owns and serves the segment
//	id|movedBit   — tombstone: the segment migrated away (slot retired)
//	id|receivingBit — inbound copy: data is being imported; it serves
//	                  only if the source's tombstone committed first
//
// The cutover order (destination data fenced, then source tombstone,
// then destination activation) makes the crash rule single-valued: an
// untombstoned source always wins, and a receiving copy wins only when
// the source's tombstone proves the destination copy was complete.
const (
	movedBit     = uint64(1) << 63
	receivingBit = uint64(1) << 62
	dirFlagMask  = movedBit | receivingBit
)

// CoreConfig sizes one shard's deterministic simulation.
type CoreConfig struct {
	// Slots is the tenant-segment capacity; SlotSize the bytes per tenant
	// (a multiple of 4).
	Slots    int
	SlotSize uint32
	// LogPages sizes the hardware log; compaction triggers at half.
	LogPages uint32
	// Disk holds the shard's checkpoint area (compact.Manager slots).
	Disk ramdisk.Device
	// DiskBase is the checkpoint area's offset on Disk.
	DiskBase uint64
	// Tail, when non-nil, durably mirrors the physical log for restart
	// recovery. nil runs the shard without cross-process durability (the
	// crashtest scenario recovers in-process from the surviving log).
	Tail *TailFile
	// Epoch, when non-zero, is an explicit fencing epoch from a promotion
	// grant: the shard serves exactly it. Zero lets NewCore elect one
	// strictly above both the checkpoint generation and the epoch the
	// last committed checkpoint persisted, so a restarted shard — even
	// one that was promoted to a high granted epoch in a previous life —
	// is never fenced out by replicas floored at that epoch.
	Epoch uint32
	// AbsorbWindow/GroupSize/GroupDeadline tune the bus logger once
	// EnableTuning is called (zero values leave the stage off).
	AbsorbWindow  int
	GroupSize     int
	GroupDeadline uint64
}

func (c *CoreConfig) fill() error {
	if c.Slots <= 0 {
		c.Slots = 64
	}
	if c.Slots > 1<<16 {
		return fmt.Errorf("lvmd: %d slots exceeds the directory limit", c.Slots)
	}
	if c.SlotSize == 0 {
		c.SlotSize = 4096
	}
	if c.SlotSize%4 != 0 {
		return fmt.Errorf("lvmd: slot size %d is not word-aligned", c.SlotSize)
	}
	if c.LogPages == 0 {
		c.LogPages = 1024
	}
	return nil
}

// Write is one word store of a client transaction, relative to the
// tenant slot.
type Write struct {
	Off uint32
	Val uint32
}

// ShardCore is one shard's single-threaded simulation: every method must
// be called from the shard's owning goroutine (or test), never
// concurrently. It hosts the arena (marker words + slot directory +
// tenant slots), the hardware log, the compaction manager, and the
// durable tail mirror.
type ShardCore struct {
	Sys    *core.System
	Arena  *core.Segment
	LogSeg *core.Segment
	P      *core.Process
	Mgr    *compact.Manager

	cfg      CoreConfig
	base     core.Addr
	slotBase uint32
	seq      uint32
	slots    map[uint64]uint32 // segID → slot index
	nextSlot uint32

	// Migration state. moved holds tombstoned entries (segment migrated
	// away); receiving marks slots whose data arrived by migration but
	// whose entry has not been activated yet. frozen/captureID/captureBuf
	// are volatile: a crash un-freezes and drops the capture, which is
	// safe because an unfinished migration resolves to the source.
	moved      map[uint64]uint32
	receiving  map[uint64]bool
	frozen     uint64
	captureID  uint64
	captureBuf []Write

	reader  *core.LogReader // tail-capture cursor (Tail != nil only)
	ship    *coreShip
	sh      *metrics.Shard
	scratch [logrec.Size]byte
	lost    uint64 // LostRecords watermark already accounted
}

// coreShip is the compact.Shipper the manager notifies: it keeps the
// tail mirror and the optional replication shipper in step with every
// physical cut, and re-seeks the capture reader (offsets slide with the
// log).
type coreShip struct {
	c   *ShardCore
	ext compact.Shipper // the shard's logship.Shipper, when serving
}

func (s *coreShip) MinAcked() uint64 {
	if s.ext != nil {
		return s.ext.MinAcked()
	}
	return ^uint64(0)
}

func (s *coreShip) Compacted(cutRecords uint64) error {
	if s.c.cfg.Tail != nil {
		if err := s.c.cfg.Tail.Cut(cutRecords * logrec.Size); err != nil {
			return err
		}
		s.c.reader.Sync()
		phys := uint64(s.c.reader.Offset())
		cutBytes := cutRecords * logrec.Size
		if cutBytes > phys {
			return fmt.Errorf("lvmd: compaction cut %d bytes but capture scanned %d", cutBytes, phys)
		}
		if err := s.c.reader.Seek(uint32(phys - cutBytes)); err != nil {
			return fmt.Errorf("lvmd: capture reseek: %w", err)
		}
	}
	if s.ext != nil {
		return s.ext.Compacted(cutRecords)
	}
	return nil
}

// ArenaSize reports the arena bytes a config implies, page-rounded to
// match what the segment will report (subscribers size their replicas
// from this, and the logship handshake rejects a size mismatch).
func (cfg CoreConfig) ArenaSize() (uint32, error) {
	if err := cfg.fill(); err != nil {
		return 0, err
	}
	slotBase := slotBaseFor(cfg.Slots)
	size := uint64(slotBase) + uint64(cfg.Slots)*uint64(cfg.SlotSize)
	size = (size + core.PageSize - 1) &^ uint64(core.PageSize-1)
	if size > 1<<31 {
		return 0, fmt.Errorf("lvmd: arena of %d slots × %d bytes too large", cfg.Slots, cfg.SlotSize)
	}
	return uint32(size), nil
}

func slotBaseFor(slots int) uint32 {
	b := MarkerLimit + uint32(slots)*dirEntryBytes
	return (b + 15) &^ 15
}

// NewCore boots a fresh shard. img, when non-nil, is a recovered arena
// image (RecoverImage): it is installed raw, the slot directory and
// transaction sequence are rebuilt from it, and — because the recovered
// state must be durable before anything is acknowledged on top of it —
// a fresh-generation checkpoint is committed and the tail mirror reset,
// so the shard's logical log offsets restart at zero in every layer
// (checkpoint header, tail header, shipper base) in step.
//
// The bus-logger tuning stages stay off until EnableTuning: restart
// re-issue (RecoverImage) and recovery tests need the log to mirror the
// issued stores one-to-one.
func NewCore(cfg CoreConfig, img []byte, seq uint32) (*ShardCore, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Disk == nil {
		return nil, errors.New("lvmd: CoreConfig.Disk is required")
	}
	arenaSize, err := cfg.ArenaSize()
	if err != nil {
		return nil, err
	}
	if img != nil && uint32(len(img)) != arenaSize {
		return nil, fmt.Errorf("lvmd: recovered image %d bytes, arena %d", len(img), arenaSize)
	}
	arenaPages := (arenaSize + core.PageSize - 1) / core.PageSize
	sys := core.NewSystem(core.Config{
		NumCPUs:   1,
		MemFrames: int(arenaPages) + int(cfg.LogPages) + 512,
	})
	arena := core.NewNamedSegment(sys, "lvmd-arena", arenaSize, nil)
	arena.SetNoAbsorbLimit(MarkerLimit) // marker words are barriers, never coalesced
	reg := core.NewStdRegion(sys, arena)
	ls := core.NewLogSegment(sys, cfg.LogPages)
	if err := reg.Log(ls); err != nil {
		return nil, fmt.Errorf("lvmd: log binding: %w", err)
	}
	as := sys.NewAddressSpace()
	base, err := reg.Bind(as, 0)
	if err != nil {
		return nil, fmt.Errorf("lvmd: arena binding: %w", err)
	}
	c := &ShardCore{
		Sys:       sys,
		Arena:     arena,
		LogSeg:    ls,
		P:         sys.NewProcess(0, as),
		cfg:       cfg,
		base:      base,
		slotBase:  slotBaseFor(cfg.Slots),
		slots:     make(map[uint64]uint32),
		moved:     make(map[uint64]uint32),
		receiving: make(map[uint64]bool),
		sh:        sys.DeviceShard(),
	}
	c.ship = &coreShip{c: c}
	c.Mgr, err = compact.New(sys, compact.Options{
		Data: arena, Log: ls, Disk: cfg.Disk, DiskBase: cfg.DiskBase, Ship: c.ship,
	})
	if err != nil {
		return nil, err
	}
	// Serving-epoch election, before any checkpoint can stamp it: an
	// explicit grant serves exactly; otherwise advance strictly past both
	// the committed checkpoint generation and the epoch the last committed
	// header persisted. A shard promoted to a high granted epoch in a
	// previous incarnation therefore restarts above it instead of falling
	// back to the generation and being fenced out by its own replicas.
	// (Legacy headers read epoch 0, reproducing the old generation-as-
	// epoch numbering exactly.)
	if cfg.Epoch != 0 {
		c.Mgr.SetEpoch(cfg.Epoch)
	} else {
		e := c.Mgr.Seq() + 1
		if pe := c.Mgr.Epoch(); pe >= e {
			e = pe + 1
		}
		c.Mgr.SetEpoch(e)
	}
	if cfg.Tail != nil {
		c.reader = core.NewLogReader(sys, ls)
	}
	if img != nil {
		arena.RawWrite(0, img)
		c.seq = seq
		c.rebuildSlots(img)
		c.sh.Inc(metrics.LvmdRecoveries)
		// Durability order: the new-generation checkpoint commits first
		// (covering the whole recovered state), the tail resets second. A
		// crash between the two replays the old tail over the new image —
		// an in-order re-application of transactions the image already
		// holds, which is idempotent.
		if err := c.Mgr.Checkpoint(nil); err != nil {
			return nil, fmt.Errorf("lvmd: post-recovery checkpoint: %w", err)
		}
		if cfg.Tail != nil {
			if err := cfg.Tail.Reset(0); err != nil {
				return nil, fmt.Errorf("lvmd: post-recovery tail reset: %w", err)
			}
		}
	}
	return c, nil
}

// rebuildSlots reconstructs the segID→slot map from a recovered image's
// directory region. Tombstoned entries keep their slot retired; a
// receiving entry holds real data and is mapped so the ownership scan
// can serve it if the source proved the copy complete.
func (c *ShardCore) rebuildSlots(img []byte) {
	for i := 0; i < c.cfg.Slots; i++ {
		off := MarkerLimit + uint32(i)*dirEntryBytes
		e := get64(img[off:])
		if e == 0 {
			break // entries are allocated densely
		}
		id := e &^ dirFlagMask
		switch {
		case e&movedBit != 0:
			c.moved[id] = uint32(i)
		case e&receivingBit != 0:
			c.slots[id] = uint32(i)
			c.receiving[id] = true
		default:
			c.slots[id] = uint32(i)
		}
		c.nextSlot = uint32(i) + 1
	}
}

// EnableTuning turns on the configured write-absorption and group-commit
// stages. Call once recovery (if any) is complete.
func (c *ShardCore) EnableTuning() {
	if c.cfg.AbsorbWindow > 0 {
		c.Sys.EnableWriteAbsorption(c.cfg.AbsorbWindow)
	}
	if c.cfg.GroupSize > 1 {
		c.Sys.EnableGroupCommit(c.cfg.GroupSize, c.cfg.GroupDeadline)
	}
}

// SetShipper attaches the shard's replication shipper: compaction cuts
// are bounded by its consumers' acks and forwarded to it.
func (c *ShardCore) SetShipper(s compact.Shipper) { c.ship.ext = s }

// Seq reports the last issued transaction sequence.
func (c *ShardCore) Seq() uint32 { return c.seq }

// Base reports the arena's address in P's address space: word 0 is the
// marker word.
func (c *ShardCore) Base() core.Addr { return c.base }

// Segments reports how many tenant segments are open.
func (c *ShardCore) Segments() int { return len(c.slots) }

// SlotOff reports the arena byte offset of slot i.
func (c *ShardCore) SlotOff(i uint32) uint32 {
	return c.slotBase + i*c.cfg.SlotSize
}

// SlotSize reports the per-tenant slot bytes.
func (c *ShardCore) SlotSize() uint32 { return c.cfg.SlotSize }

// Lookup returns a tenant's slot index.
func (c *ShardCore) Lookup(segID uint64) (uint32, bool) {
	s, ok := c.slots[segID]
	return s, ok
}

// ErrNoSlot reports a full slot directory.
var ErrNoSlot = errors.New("lvmd: shard slot directory full")

// ErrMoved reports an operation on a segment this shard no longer (or
// not yet) serves: it migrated away, or is frozen mid-cutover. The
// server answers StatusMoved and the client re-resolves its route.
var ErrMoved = errors.New("lvmd: segment moved")

// Open maps segID to a slot, allocating one inside a marker-bracketed
// transaction on first open (the directory write recovers with the
// data). The allocation is durable only after the next SyncBatch; the
// caller acknowledges after that fence, like a commit.
func (c *ShardCore) Open(segID uint64) (slot uint32, existed bool, err error) {
	if segID == 0 {
		return 0, false, errors.New("lvmd: segment ID 0 is reserved")
	}
	if segID&dirFlagMask != 0 {
		return 0, false, fmt.Errorf("lvmd: segment ID %#x collides with directory flag bits", segID)
	}
	if s, ok := c.slots[segID]; ok {
		return s, true, nil
	}
	if _, gone := c.moved[segID]; gone {
		return 0, false, ErrMoved
	}
	if int(c.nextSlot) >= c.cfg.Slots {
		return 0, false, ErrNoSlot
	}
	slot = c.nextSlot
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit) // begin
	dir := c.base + core.Addr(MarkerLimit+slot*dirEntryBytes)
	c.P.Store32(dir, uint32(segID))
	c.P.Store32(dir+4, uint32(segID>>32))
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit) // commit
	c.nextSlot++
	c.slots[segID] = slot
	c.sh.Inc(metrics.LvmdOpens)
	return slot, false, nil
}

// Commit applies one client transaction: every write behind a begin
// marker, then the commit marker. Durable (and acknowledgeable) only
// after the next SyncBatch. Returns the marker-protocol sequence.
func (c *ShardCore) Commit(segID uint64, writes []Write) (uint32, error) {
	slot, ok := c.slots[segID]
	if !ok {
		if _, gone := c.moved[segID]; gone {
			return 0, ErrMoved
		}
		return 0, fmt.Errorf("lvmd: commit to unopened segment %d", segID)
	}
	if c.frozen == segID {
		return 0, ErrMoved
	}
	for _, w := range writes {
		if w.Off%4 != 0 || w.Off+4 > c.cfg.SlotSize {
			return 0, fmt.Errorf("lvmd: store offset %d invalid for %d-byte slot", w.Off, c.cfg.SlotSize)
		}
	}
	c.seq++
	c.P.Store32(c.base, c.seq&^recovery.MarkerCommit) // begin
	va := c.base + core.Addr(c.SlotOff(slot))
	for _, w := range writes {
		c.P.Store32(va+core.Addr(w.Off), w.Val)
	}
	c.P.Store32(c.base, c.seq|recovery.MarkerCommit) // commit
	if c.captureID == segID && segID != 0 {
		c.captureBuf = append(c.captureBuf, writes...)
	}
	c.sh.Inc(metrics.LvmdCommits)
	c.sh.Add(metrics.LvmdStores, uint64(len(writes)))
	return c.seq, nil
}

// Read returns committed tenant bytes (call after SyncBatch for
// read-your-acked-writes consistency; the shard goroutine serializes
// reads with commits either way).
func (c *ShardCore) Read(segID uint64, off, n uint32) ([]byte, error) {
	slot, ok := c.slots[segID]
	if !ok {
		if _, gone := c.moved[segID]; gone {
			return nil, ErrMoved
		}
		return nil, fmt.Errorf("lvmd: read of unopened segment %d", segID)
	}
	if off+n < off || off+n > c.cfg.SlotSize {
		return nil, fmt.Errorf("lvmd: read [%d,%d) leaves %d-byte slot", off, off+n, c.cfg.SlotSize)
	}
	out := make([]byte, n)
	c.Arena.ReadInto(c.SlotOff(slot)+off, out)
	c.sh.Inc(metrics.LvmdReads)
	return out, nil
}

// SyncBatch is the group durability fence: drain the bus logger, mirror
// the new log records into the tail file, and fsync it. Everything
// applied since the previous fence is durable when it returns — the
// point at which commit acknowledgements may be sent. It refuses to
// succeed if the hardware lost records (a full log wrapped into absorb
// mode): acknowledging on top of silent loss would be a durability lie.
func (c *ShardCore) SyncBatch() error {
	c.Sys.Sync()
	if lost := c.LogSeg.LostRecords(); lost > c.lost {
		c.lost = lost
		return fmt.Errorf("lvmd: hardware log overflowed, %d records lost", lost)
	}
	c.sh.Inc(metrics.LvmdBatches)
	if c.cfg.Tail == nil {
		return nil
	}
	c.reader.Sync()
	appended := uint64(0)
	err := logcursor.EachData(c.reader, c.Arena, func(rec core.Record, isData bool) error {
		if !isData {
			return fmt.Errorf("lvmd: log record for foreign segment at offset %d", c.reader.Offset())
		}
		logcursor.Wire(rec).Encode(c.scratch[:])
		c.cfg.Tail.Append(c.scratch[:])
		appended += logrec.Size
		return nil
	})
	if err != nil {
		return err
	}
	if err := c.cfg.Tail.Flush(); err != nil {
		return err
	}
	c.sh.Add(metrics.LvmdTailBytes, appended)
	return nil
}

// MaybeCompact runs a checkpoint-and-truncate cycle once the log tail
// passes half the log's capacity. A refused compaction (e.g. a device
// error) leaves the log intact and recovery falls back to a longer
// replay; it is reported but not fatal.
func (c *ShardCore) MaybeCompact() (bool, error) {
	end := c.Sys.K.LogAppendOffset(c.LogSeg)
	if uint64(end) < uint64(c.cfg.LogPages)*uint64(core.PageSize)/2 {
		return false, nil
	}
	if err := c.Mgr.Compact(c.P.CPU); err != nil {
		return false, err
	}
	return true, nil
}

// Checkpoint commits a checkpoint image without truncating (drain path:
// it must not wait on lagging replication consumers).
func (c *ShardCore) Checkpoint() error { return c.Mgr.Checkpoint(nil) }

// Digest hashes the arena's recoverable bytes (directory + slots; the
// volatile marker word is excluded). Two shards with identical committed
// state digest identically — the byte-identical-restart check.
func (c *ShardCore) Digest() [32]byte {
	buf := make([]byte, c.Arena.Size()-MarkerLimit)
	c.Arena.ReadInto(MarkerLimit, buf)
	return sha256.Sum256(buf)
}

// RecoverInfo reports what a restart recovery did.
type RecoverInfo struct {
	compact.RecoverResult
	// TailRecords is how many mirrored records the tail file held;
	// ReissuedRecords how many were re-issued (fewer after a torn or
	// invalid record, which ends the re-issue like a quarantined tail).
	TailRecords     int
	ReissuedRecords int
	Seq             uint32
}

// RecoverImage reconstructs a shard's committed arena image from its
// durable files without modifying them: the tail mirror is re-issued
// as real stores through a throwaway machine (the log segment's record
// addresses resolve only against live mappings, so persisted bytes
// cannot be replayed directly), then compact.Recover seeds a fresh
// segment from the last committed checkpoint and replays the
// marker-committed tail past its watermark. Pure: calling it twice must
// produce identical images — the -check mode's determinism probe.
func RecoverImage(cfg CoreConfig, tail *TailFile) ([]byte, RecoverInfo, error) {
	var info RecoverInfo
	if err := cfg.fill(); err != nil {
		return nil, info, err
	}
	arenaSize, err := cfg.ArenaSize()
	if err != nil {
		return nil, info, err
	}
	// Boot the throwaway machine with tuning off: re-issue must append
	// one log record per mirrored record, or the checkpoint watermark
	// arithmetic stops lining up with physical offsets.
	boot := cfg
	boot.Tail = nil
	boot.AbsorbWindow, boot.GroupSize, boot.GroupDeadline = 0, 0, 0
	c, err := NewCore(boot, nil, 0)
	if err != nil {
		return nil, info, err
	}
	records, err := tail.Load()
	if err != nil {
		return nil, info, err
	}
	info.TailRecords = len(records) / int(logrec.Size)
	for off := 0; off+logrec.Size <= len(records); off += logrec.Size {
		rec := logrec.Decode(records[off:])
		if !recovery.ValidWrite(rec.Addr, rec.WriteSize, arenaSize) {
			break // torn or damaged mirror: stop, like a quarantined tail
		}
		va := c.base + core.Addr(rec.Addr)
		switch rec.WriteSize {
		case 4:
			c.P.Store32(va, rec.Value)
		case 2:
			c.P.Store16(va, uint16(rec.Value))
		default:
			c.P.Store8(va, uint8(rec.Value))
		}
		info.ReissuedRecords++
	}
	c.Sys.Sync()
	if got := c.Sys.K.LogAppendOffset(c.LogSeg); got != uint32(info.ReissuedRecords)*uint32(logrec.Size) {
		return nil, info, fmt.Errorf("lvmd: re-issued %d records but log holds %d bytes",
			info.ReissuedRecords, got)
	}
	dst := core.NewNamedSegment(c.Sys, "lvmd-recover", arenaSize, nil)
	rr, err := compact.Recover(c.Sys, compact.RecoverOptions{
		Disk:     recovery.NewRetryDisk(cfg.Disk, nil, c.sh),
		DiskBase: cfg.DiskBase,
		Log:      c.LogSeg, Data: c.Arena, Dst: dst, MarkerLimit: MarkerLimit,
	})
	if err != nil {
		return nil, info, err
	}
	info.RecoverResult = rr
	img := make([]byte, arenaSize)
	dst.ReadInto(0, img)
	info.Seq = StampMarker(img, rr.LastSeq)
	return img, info, nil
}

// StampMarker makes img bootable. It resolves the transaction sequence
// the image resumes from — the larger of its marker word (the last
// marker the image captured) and lastSeq (the last commit a log replay
// applied on top of it, 0 when nothing was replayed) — and stamps it
// back into the marker word as seq|MarkerCommit, which it returns
// without the commit bit. It stamps unconditionally, seq 0 included, so
// every boot image carries a committed marker.
//
// Replay never writes protocol words into its destination, so without
// the stamp a recovered image keeps the marker its checkpoint captured:
// a generation that serves no new transactions re-checkpoints that image
// verbatim, and the next recovery — with an empty tail and so no
// LastSeq to compensate — would report the stale sequence. Recovery,
// promotion (Failover.Promote) and the crash tests' reboots all stamp
// through here.
func StampMarker(img []byte, lastSeq uint32) uint32 {
	seq := max(get32(img)&^recovery.MarkerCommit, lastSeq)
	put32(img, seq|recovery.MarkerCommit)
	return seq
}
