// Package compact owns the log-prefix lifecycle of a logged segment: it
// snapshots the segment image to a ramdisk behind a durable marker-word
// commit, computes the safe truncation point (the minimum of the
// checkpoint watermark and every replication consumer's acknowledged
// sequence), truncates the hardware log with RewindLog, and teaches
// recovery to replay only the post-checkpoint tail — Section 2.4's "the
// log segment can be truncated once the records have been applied" and
// Section 4.2's RLVM truncation, promoted from per-client ad-hoc calls
// to one manager.
//
// Checkpoint durability reuses the recovery marker protocol
// (recovery.MarkerCommit): each checkpoint writes an open header (seal
// word zero, invalidating the slot), then the image, then the seal word
// seq|MarkerCommit — each step behind a sync. Two slots alternate, so a
// crash anywhere leaves either the previous committed checkpoint or the
// new one, never neither. Because the slide of the surviving tail and
// the hardware rewind happen only after the seal is durable, a crash in
// the commit-to-cut window merely replays records the image already
// covers — replaying an in-order suffix of absolute writes is
// idempotent.
//
// Logical positions: the manager tracks cutBase, the logical log byte
// offset of physical byte 0. Checkpoint headers store logical
// watermarks, and the shipping layer's sequence numbers stay logical
// (and monotonic) across compactions, so live replication consumers
// stream straight through a truncation without an epoch-bump resync.
package compact

import (
	"errors"
	"fmt"

	"lvm/internal/core"
	"lvm/internal/cycles"
	"lvm/internal/logrec"
	"lvm/internal/machine"
	"lvm/internal/metrics"
	"lvm/internal/ramdisk"
	"lvm/internal/recovery"
)

// Magic is the checkpoint header preamble, "LVCP" little-endian.
const Magic = uint32(0x5043564C)

// Header layout (one disk block per slot; little-endian):
//
//	0  u32 magic
//	4  u32 seq        checkpoint generation, monotonically increasing
//	8  u32 imgLen     image length in bytes (== Data.Size())
//	12 u32 epoch      fencing epoch served when the image committed (0 = legacy header)
//	16 u64 watermark  logical log offset the image covers
//	24 u64 cutBase    logical offset of physical log byte 0 at commit
//	32 u32 seal       seq|recovery.MarkerCommit once committed, 0 while open
const (
	hdrSeq       = 4
	hdrImgLen    = 8
	hdrEpoch     = 12
	hdrWatermark = 16
	hdrCutBase   = 24
	hdrSeal      = 32
	hdrSize      = 36
)

// Shipper is the producer-side replication surface a compaction must
// respect and notify. *logship.Shipper implements it; the indirection
// keeps this package free of a transport dependency.
type Shipper interface {
	// MinAcked reports the lowest record sequence acknowledged across
	// live consumers, ^uint64(0) when none are attached.
	MinAcked() uint64
	// Compacted tells the shipping layer that cutRecords records were
	// sliced off the front of the physical log, so it can rebase its
	// reader without bumping the epoch.
	Compacted(cutRecords uint64) error
}

// Options configures a Manager.
type Options struct {
	// Data is the logged data segment checkpoints snapshot. nil makes a
	// truncate-only manager (TruncateAll works, Checkpoint/Compact error).
	Data *core.Segment
	// Log is the hardware log segment whose prefix is managed. Required.
	Log *core.Segment
	// Disk holds the checkpoint slots and images, starting at DiskBase.
	// nil makes a truncate-only manager.
	Disk ramdisk.Device
	// DiskBase is the byte offset of the checkpoint area on Disk. The
	// area occupies 2 header blocks plus 2 block-aligned images.
	DiskBase uint64
	// Ship, when non-nil, bounds the safe truncation point by consumer
	// acknowledgements and is told about every cut.
	Ship Shipper
	// Epoch seeds the fencing epoch stamped into every checkpoint header
	// (a promotion grant). The committed epoch on disk wins if higher, so
	// a restart can never re-serve an epoch an earlier incarnation already
	// fenced past.
	Epoch uint32
}

// Stats counts manager activity (mirrored into the compact.* metrics).
type Stats struct {
	Checkpoints      uint64
	SnapshotBytes    uint64
	Truncations      uint64
	BytesTruncated   uint64
	TruncateFailures uint64
}

// Manager runs checkpoints and compactions for one logged segment.
type Manager struct {
	sys *core.System
	o   Options

	seq     uint32 // committed checkpoint generation
	epoch   uint32 // fencing epoch stamped into checkpoint headers
	cutBase uint64 // logical offset of physical log byte 0

	img     []byte // reusable image buffer
	scratch []byte // reusable slide buffer

	// FailHook, when non-nil, runs immediately before the hardware-log
	// rewind — after every durable step of the cycle has committed. It is
	// the fault injector's surface for the window the swallowed-error
	// bugs hid (e.g. "WAL reset done, LVM truncation fails or the machine
	// dies"): returning an error aborts the truncation, which is counted
	// and surfaced, never swallowed.
	FailHook func() error

	Stats Stats
}

// New creates a manager. With a Disk it resumes the committed checkpoint
// generation so new checkpoints never lose the highest-seq slot election
// to a stale slot. It performs no recovery and trusts that the current
// log contents match the manager's (zero) cutBase: a caller restarting
// after a crash must first reconstruct state with Recover and then
// either truncate the log (TruncateAll) or re-checkpoint before relying
// on compaction again.
func New(sys *core.System, o Options) (*Manager, error) {
	if o.Log == nil {
		return nil, errors.New("compact: Options.Log is required")
	}
	if !o.Log.IsLog() {
		return nil, errors.New("compact: Options.Log is not a log segment")
	}
	m := &Manager{sys: sys, o: o, epoch: o.Epoch}
	if o.Disk != nil {
		if o.Data == nil {
			return nil, errors.New("compact: checkpointing needs Options.Data")
		}
		st, ok, err := loadState(o.Disk, o.DiskBase)
		if err != nil {
			return nil, err
		}
		if ok {
			m.seq = st.seq
			if st.epoch > m.epoch {
				m.epoch = st.epoch
			}
		}
	}
	return m, nil
}

// Seq reports the committed checkpoint generation (0 = none).
func (m *Manager) Seq() uint32 { return m.seq }

// Epoch reports the fencing epoch the next checkpoint will stamp: the
// maximum of the Options seed and the last committed header's epoch.
func (m *Manager) Epoch() uint32 { return m.epoch }

// SetEpoch raises the fencing epoch stamped into checkpoint headers.
// Epochs only move forward: a lower value is ignored, so a caller can
// never re-serve an epoch a previous incarnation already persisted.
func (m *Manager) SetEpoch(e uint32) {
	if e > m.epoch {
		m.epoch = e
	}
}

// CutBase reports the logical log offset of physical byte 0.
func (m *Manager) CutBase() uint64 { return m.cutBase }

// Checkpoint snapshots the data segment behind a marker-word commit
// without truncating anything. cpu (may be nil) is charged the device
// costs. Call at a transaction boundary: the image must hold only
// committed state, since replay resumes after it.
func (m *Manager) Checkpoint(cpu *machine.CPU) error {
	if m.o.Disk == nil {
		return errors.New("compact: no checkpoint device configured")
	}
	m.sys.K.Sync()
	end := m.sys.K.LogAppendOffset(m.o.Log)
	return m.writeCheckpoint(cpu, m.cutBase+uint64(end), m.cutBase)
}

// Compact runs one full cycle: checkpoint the image, pick the safe cut
// point, slide the surviving tail to the front of the log, rewind the
// hardware append position, and rebase the shipping layer. The safe cut
// is min(checkpoint watermark, lowest consumer ack); everything below it
// is covered by the image (and by every replica), so no information is
// lost. Call at a transaction boundary, producer thread only.
func (m *Manager) Compact(cpu *machine.CPU) error {
	if m.o.Disk == nil {
		return errors.New("compact: no checkpoint device configured")
	}
	m.sys.K.Sync()
	end := m.sys.K.LogAppendOffset(m.o.Log)
	watermark := m.cutBase + uint64(end)
	safe := watermark
	if m.o.Ship != nil {
		if acked := m.o.Ship.MinAcked(); acked < watermark/logrec.Size {
			safe = acked * logrec.Size
		}
	}
	if safe < m.cutBase {
		safe = m.cutBase
	}
	// Physical offsets are record-aligned throughout; keep the cut so.
	safe -= (safe - m.cutBase) % logrec.Size
	if err := m.writeCheckpoint(cpu, watermark, safe); err != nil {
		return err
	}
	return m.truncateTo(cpu, uint32(safe-m.cutBase), end, safe)
}

// TruncateAll discards the whole current log after a logger sync — the
// shared replacement for the bare Kernel.TruncateLog calls in RLVM and
// timewarp, whose durability lives elsewhere (a write-ahead log, a
// checkpoint segment). Unlike those calls it propagates failure: the log
// keeps its contents, the failure is counted in Stats.TruncateFailures
// and the compact.truncate_failures metric, and the caller decides.
// It charges no cycles, so calibrated simulations are undisturbed.
func (m *Manager) TruncateAll() error {
	m.sys.K.Sync()
	end := m.sys.K.LogAppendOffset(m.o.Log)
	return m.truncateTo(nil, end, end, m.cutBase+uint64(end))
}

// truncateTo cuts the first cut bytes of the physical log (whose current
// append offset is end), leaving the tail at the front, and moves
// cutBase to newBase. FailHook fires first — after all durable state has
// committed — so injected failures land exactly in the window the old
// swallowed-error code hid.
func (m *Manager) truncateTo(cpu *machine.CPU, cut, end uint32, newBase uint64) error {
	if m.FailHook != nil {
		if err := m.FailHook(); err != nil {
			return m.failTrunc(err)
		}
	}
	if cut == 0 {
		return nil
	}
	tail := end - cut
	if tail > 0 {
		m.slide(cpu, cut, end)
	}
	if err := m.sys.K.RewindLog(m.o.Log, tail); err != nil {
		return m.failTrunc(fmt.Errorf("compact: log rewind: %w", err))
	}
	m.cutBase = newBase
	m.Stats.Truncations++
	m.Stats.BytesTruncated += uint64(cut)
	sh := m.sys.DeviceShard()
	sh.Inc(metrics.CompactTruncations)
	sh.Add(metrics.CompactBytesTruncated, uint64(cut))
	if m.o.Ship != nil {
		if err := m.o.Ship.Compacted(uint64(cut) / logrec.Size); err != nil {
			return fmt.Errorf("compact: shipper rebase: %w", err)
		}
	}
	return nil
}

func (m *Manager) failTrunc(err error) error {
	m.Stats.TruncateFailures++
	m.sys.DeviceShard().Inc(metrics.CompactTruncateFailures)
	return err
}

// slide moves log bytes [cut, end) to [0, end-cut). Raw segment accesses
// fire no crash triggers and charge nothing, so the move is atomic with
// respect to the fault model; the cost is charged as one lump (a bcopy
// of the tail) when a cpu is given.
func (m *Manager) slide(cpu *machine.CPU, cut, end uint32) {
	if m.scratch == nil {
		m.scratch = make([]byte, 4096)
	}
	for off := cut; off < end; {
		n := uint32(len(m.scratch))
		if off+n > end {
			n = end - off
		}
		m.o.Log.ReadInto(off, m.scratch[:n])
		m.o.Log.RawWrite(off-cut, m.scratch[:n])
		off += n
	}
	if cpu != nil {
		lines := uint64(end-cut+core.LineSize-1) / core.LineSize
		cpu.Compute(lines * cycles.BcopyLineCycles)
	}
}

// writeCheckpoint runs the marker protocol for one checkpoint: open
// header (seal cleared — the slot being overwritten is the older one),
// image, seal, each behind a sync. Six device operations, so crash
// injection can land before, inside, and after the commit point.
func (m *Manager) writeCheckpoint(cpu *machine.CPU, watermark, cutBase uint64) error {
	seq := m.seq + 1
	slot := uint64(seq & 1)
	hdrOff := m.o.DiskBase + slot*ramdisk.BlockSize

	var hdr [hdrSize]byte
	put32(hdr[0:], Magic)
	put32(hdr[hdrSeq:], seq)
	put32(hdr[hdrImgLen:], m.o.Data.Size())
	put32(hdr[hdrEpoch:], m.epoch)
	put64(hdr[hdrWatermark:], watermark)
	put64(hdr[hdrCutBase:], cutBase)
	put32(hdr[hdrSeal:], 0)
	if err := m.o.Disk.TryWriteAt(cpu, hdrOff, hdr[:]); err != nil {
		return fmt.Errorf("compact: checkpoint header write: %w", err)
	}
	if err := m.o.Disk.TrySync(cpu); err != nil {
		return fmt.Errorf("compact: checkpoint header sync: %w", err)
	}

	if m.img == nil {
		m.img = make([]byte, m.o.Data.Size())
	}
	m.o.Data.ReadInto(0, m.img)
	if err := m.o.Disk.TryWriteAt(cpu, imgOff(m.o.DiskBase, slot, m.o.Data.Size()), m.img); err != nil {
		return fmt.Errorf("compact: checkpoint image write: %w", err)
	}
	if err := m.o.Disk.TrySync(cpu); err != nil {
		return fmt.Errorf("compact: checkpoint image sync: %w", err)
	}

	var seal [4]byte
	put32(seal[:], seq|recovery.MarkerCommit)
	if err := m.o.Disk.TryWriteAt(cpu, hdrOff+hdrSeal, seal[:]); err != nil {
		return fmt.Errorf("compact: checkpoint seal write: %w", err)
	}
	if err := m.o.Disk.TrySync(cpu); err != nil {
		return fmt.Errorf("compact: checkpoint seal sync: %w", err)
	}

	m.seq = seq
	m.Stats.Checkpoints++
	m.Stats.SnapshotBytes += uint64(len(m.img))
	sh := m.sys.DeviceShard()
	sh.Inc(metrics.CompactCheckpoints)
	sh.Add(metrics.CompactSnapshotBytes, uint64(len(m.img)))
	return nil
}

// imgOff places slot images after the two header blocks, block-aligned.
func imgOff(base, slot uint64, imgLen uint32) uint64 {
	span := (uint64(imgLen) + ramdisk.BlockSize - 1) / ramdisk.BlockSize * ramdisk.BlockSize
	return base + 2*ramdisk.BlockSize + slot*span
}

// state is one decoded, validated checkpoint header.
type state struct {
	slot      uint64
	seq       uint32
	imgLen    uint32
	epoch     uint32
	watermark uint64
	cutBase   uint64
}

// loadState reads both slots and returns the committed checkpoint with
// the highest generation, ok=false when neither slot holds one (a fresh
// disk, or every checkpoint was interrupted before its seal).
func loadState(disk ramdisk.Device, base uint64) (state, bool, error) {
	var best state
	found := false
	for slot := uint64(0); slot < 2; slot++ {
		var hdr [hdrSize]byte
		if err := disk.TryReadAt(nil, base+slot*ramdisk.BlockSize, hdr[:]); err != nil {
			return state{}, false, fmt.Errorf("compact: checkpoint header read: %w", err)
		}
		st, ok := decodeHeader(slot, hdr[:])
		if ok && (!found || st.seq > best.seq) {
			best = st
			found = true
		}
	}
	return best, found, nil
}

// decodeHeader validates one header against the marker protocol: magic,
// a seal matching seq|MarkerCommit, and internally consistent offsets.
func decodeHeader(slot uint64, hdr []byte) (state, bool) {
	st := state{
		slot:      slot,
		seq:       get32(hdr[hdrSeq:]),
		imgLen:    get32(hdr[hdrImgLen:]),
		epoch:     get32(hdr[hdrEpoch:]),
		watermark: get64(hdr[hdrWatermark:]),
		cutBase:   get64(hdr[hdrCutBase:]),
	}
	if get32(hdr) != Magic || st.seq == 0 || st.imgLen == 0 {
		return state{}, false
	}
	if get32(hdr[hdrSeal:]) != st.seq|recovery.MarkerCommit {
		return state{}, false
	}
	if st.watermark < st.cutBase || st.watermark-st.cutBase > uint64(^uint32(0)) {
		return state{}, false
	}
	return st, true
}

// RecoverOptions configures one checkpoint-aware recovery.
type RecoverOptions struct {
	// Disk/DiskBase locate the checkpoint area (Disk nil = plain replay;
	// recovery typically passes a recovery.RetryDisk wrap).
	Disk     ramdisk.Device
	DiskBase uint64
	// Log, Data, Dst, MarkerLimit, End mirror recovery.ReplayOptions.
	Log         *core.Segment
	Data        *core.Segment
	Dst         *core.Segment
	MarkerLimit uint32
	End         uint32
}

// RecoverResult is a replay result plus where the replay started.
type RecoverResult struct {
	recovery.Result
	// FromCheckpoint reports whether a committed checkpoint image seeded
	// Dst; Seq is its generation and Start the replay offset (0 without
	// one — the O(log) fallback).
	FromCheckpoint bool
	Seq            uint32
	Start          uint32
	// Epoch is the fencing epoch the committed header carried (0 on a
	// legacy header or without a checkpoint) — the floor a restarted
	// primary must serve strictly above.
	Epoch uint32
}

// Recover reconstructs Dst after a crash: load the last committed
// checkpoint image (if any), then replay only the log tail past its
// watermark — O(tail) instead of O(log). Without a usable checkpoint it
// degrades to a full replay from offset 0. The replay itself never
// panics on damaged input (see recovery.Replay); only device errors
// reading the checkpoint area surface here.
func Recover(sys *core.System, o RecoverOptions) (RecoverResult, error) {
	var rr RecoverResult
	start := uint32(0)
	if o.Disk != nil {
		st, ok, err := loadState(o.Disk, o.DiskBase)
		if err != nil {
			return rr, err
		}
		if ok && st.imgLen == o.Dst.Size() {
			img := make([]byte, st.imgLen)
			if err := o.Disk.TryReadAt(nil, imgOff(o.DiskBase, st.slot, st.imgLen), img); err != nil {
				return rr, fmt.Errorf("compact: checkpoint image load: %w", err)
			}
			o.Dst.RawWrite(0, img)
			start = uint32(st.watermark - st.cutBase)
			rr.FromCheckpoint = true
			rr.Seq = st.seq
			rr.Epoch = st.epoch
		}
	}
	rr.Start = start
	rr.Result = recovery.Replay(sys, recovery.ReplayOptions{
		Log: o.Log, Data: o.Data, Dst: o.Dst,
		MarkerLimit: o.MarkerLimit, End: o.End, Start: start,
	})
	return rr, nil
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func get64(b []byte) uint64 {
	return uint64(get32(b)) | uint64(get32(b[4:]))<<32
}
