package logship

import (
	"errors"
	"fmt"
	"net"
	"time"

	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/logcursor"
	"lvm/internal/logrec"
	"lvm/internal/recovery"
)

// Replica is one log-shipping consumer: its own simulated System holding
// a replica segment that converges on the producer's shared segment as
// batches arrive. Records apply through the dsm.Consumer machinery and
// are validated with the crash-recovery rules; a torn or corrupt frame
// quarantines the session (nothing past the damage applies, the frame is
// never acked), and the next Connect resumes from the last acknowledged
// sequence — the shipper re-reads its log to catch the replica up, the
// replication analogue of recovery.Replay over a surviving log.
type Replica struct {
	sys  *core.System
	cons *dsm.Consumer
	dial DialFunc
	size uint32

	// Session state. Written only by the consume goroutine; reads from
	// other goroutines must wait for Done (Kill and Connect do).
	lastSeq uint64
	epoch   uint32
	err     error

	// Marker-protocol transaction tracking (TrackMarkers). Batches seal
	// at record-count boundaries, not transaction boundaries, so an acked
	// replica can hold the front half of a transaction; the undo ledger
	// records the pre-image of every word the open transaction touched so
	// Rollback can settle the replica at its last transaction boundary
	// before a promotion serves from it.
	markerLimit uint32
	undo        []undoWord
	inflight    bool
	// inflightUnknown: the session began from a snapshot image whose
	// marker word shows an open transaction — there is no pre-image to
	// undo with, so Rollback must refuse until a commit marker closes it.
	inflightUnknown bool

	// leaseObs, when set by TrackLease, receives every lease heartbeat
	// frame. Called from the consume goroutine; the observer (typically
	// a lease.Monitor) must be safe for that.
	leaseObs func(Beat)

	conn      net.Conn
	done      chan struct{}
	connected bool

	// Stats surface in the replica System's MetricsSnapshot as
	// logship.replica_* counters.
	Stats ReplicaStats
}

// NewReplica builds a replica for a shared segment of the given size.
// The replica owns a fresh single-CPU System; nothing is shared with the
// producer but the wire.
func NewReplica(dial DialFunc, size uint32) (*Replica, error) {
	frames := int(size/core.PageSize) + 32
	sys := core.NewSystem(core.Config{NumCPUs: 1, MemFrames: frames})
	cons, err := dsm.NewConsumer(sys, sys.NewProcess(0, sys.NewAddressSpace()), size)
	if err != nil {
		return nil, err
	}
	r := &Replica{sys: sys, cons: cons, dial: dial, size: size, done: closedChan()}
	sys.Metrics().AddCollector(r.Stats.Collect)
	return r, nil
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// ErrFenced marks a session refused because the shipper's generation is
// behind the replica's: a zombie ex-primary trying to feed a replica
// that already follows a promoted timeline.
var ErrFenced = errors.New("logship: fenced: shipper epoch is stale")

// undoWord is one pre-image entry of the open transaction's undo ledger.
type undoWord struct {
	off uint32
	val uint32
}

// TrackMarkers enables marker-protocol transaction tracking: the word at
// offset 0 of a segment whose writers follow the recovery marker
// protocol carries begin/commit markers, and the replica keeps the
// pre-image of every word the open transaction wrote so Rollback can
// undo a half-replicated tail. Call while disconnected, before Connect.
func (r *Replica) TrackMarkers(markerLimit uint32) { r.markerLimit = markerLimit }

// TrackLease routes serving-lease heartbeats (internal/lease) to obs —
// typically a lease.Monitor's Observe. obs runs on the consume
// goroutine. Call while disconnected, before Connect.
func (r *Replica) TrackLease(obs func(Beat)) { r.leaseObs = obs }

// System exposes the replica's simulated machine (for metrics snapshots).
func (r *Replica) System() *core.System { return r.sys }

// Consumer exposes the replica state for verification (dsm.Verify).
func (r *Replica) Consumer() *dsm.Consumer { return r.cons }

// LastSeq reports the last acknowledged sequence. Call only while
// disconnected (after Kill or a session end).
func (r *Replica) LastSeq() uint64 { return r.lastSeq }

// Err reports how the last session ended (nil for a clean Kill). Call
// only while disconnected.
func (r *Replica) Err() error { return r.err }

// Connect dials the shipper, performs the handshake, and starts a
// consume goroutine. A second Connect after a session ended resumes from
// the last acknowledged sequence (counted as a reconnect); if the
// shipper's log generation changed, the welcome forces a full resync
// from sequence zero, which converges because records replay in order.
func (r *Replica) Connect() error {
	<-r.done // join any previous session
	c, err := r.dial()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	_ = c.SetDeadline(deadline)
	var flags byte
	if r.leaseObs != nil {
		// Only lease observers advertise themselves: their beat-acks are
		// the delivery evidence the holder's renewal feeds on, and a
		// transient subscriber (e.g. a segment migration) must not engage
		// the holder or sustain its evidence.
		flags |= helloObserver
	}
	if _, err := c.Write(encodeFrame(typeHello, encodeHello(hello{
		lastSeq: r.lastSeq,
		epoch:   r.epoch,
		segSize: r.size,
		flags:   flags,
	}))); err != nil {
		c.Close()
		return err
	}
	typ, payload, err := readFrame(c)
	if err != nil {
		c.Close()
		return err
	}
	if typ != typeWelcome {
		c.Close()
		return fmt.Errorf("logship: handshake got frame type %d", typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		c.Close()
		return err
	}
	if w.segSize != r.size {
		c.Close()
		return fmt.Errorf("logship: shipper segment is %d bytes, replica is %d", w.segSize, r.size)
	}
	if w.epoch < r.epoch {
		// Epochs only move forward: a shipper behind our generation is a
		// zombie ex-primary, and following it would roll this replica
		// back behind the promoted timeline it already acknowledged.
		c.Close()
		r.Stats.Fenced.Add(1)
		return fmt.Errorf("%w: shipper at epoch %d, replica follows %d", ErrFenced, w.epoch, r.epoch)
	}
	_ = c.SetDeadline(time.Time{})
	if w.startSeq == 0 && (r.lastSeq > 0 || w.epoch != r.epoch) {
		// Full resync under a new log generation: replaying from the
		// log start in order converges the replica regardless of its
		// current contents.
		r.lastSeq = 0
		r.undo = r.undo[:0]
		r.inflight = false
		r.inflightUnknown = false
	}
	r.epoch = w.epoch
	if r.connected {
		r.Stats.Reconnects.Add(1)
	}
	r.connected = true
	r.err = nil
	r.conn = c
	r.done = make(chan struct{})
	go r.consume(c)
	return nil
}

// Kill abruptly drops the connection — the mid-stream crash of the
// acceptance test — and joins the consume goroutine. The replica keeps
// its segment and last acked sequence, exactly like a node whose state
// survived on NVM; Connect brings it back and catches it up.
func (r *Replica) Kill() {
	if r.conn != nil {
		r.conn.Close()
	}
	<-r.done
	r.conn = nil
}

// consume applies batches until the connection dies or a frame fails
// validation.
func (r *Replica) consume(c net.Conn) {
	defer close(r.done)
	defer c.Close()
	for {
		typ, payload, err := readFrame(c)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				r.Stats.QuarantinedFrames.Add(1)
			}
			r.err = err
			return
		}
		r.Stats.BytesReceived.Add(uint64(headerSize + len(payload) + crcSize))
		if typ == typeSnapshot {
			if !r.applySnapshot(c, payload) {
				return
			}
			continue
		}
		if typ == typeLease {
			b, err := decodeBeat(payload)
			if err != nil {
				r.Stats.QuarantinedFrames.Add(1)
				r.err = err
				return
			}
			r.Stats.BeatsSeen.Add(1)
			if r.leaseObs != nil {
				r.leaseObs(b)
				// Acknowledge after observing: once the ack reaches the
				// shipper, this monitor's expiry deadline is provably at
				// or beyond the holder's evidence deadline for this beat.
				if !r.sendBeatAck(c, b.Seq) {
					return
				}
			}
			continue
		}
		if typ != typeBatch {
			continue
		}
		h, records, err := decodeBatch(payload)
		if err != nil {
			r.Stats.QuarantinedFrames.Add(1)
			r.err = err
			return
		}
		if h.endSeq <= r.lastSeq {
			// Duplicate delivery (e.g. a batch raced a reconnect):
			// already applied, just re-ack so the shipper advances.
			r.sendAck(c, r.lastSeq)
			continue
		}
		if h.baseSeq > r.lastSeq {
			r.Stats.QuarantinedFrames.Add(1)
			r.Stats.QuarantinedRecords.Add(uint64(h.count))
			r.err = fmt.Errorf("logship: gap: batch starts at seq %d, replica at %d", h.baseSeq, r.lastSeq)
			return
		}
		if !r.applyBatch(h, records) {
			return
		}
		r.lastSeq = h.endSeq
		if !r.sendAck(c, h.endSeq) {
			return
		}
	}
}

// applySnapshot applies one chunk of a catch-up segment image (shipped
// when this replica's cursor predates the shipper's compaction cut). The
// cursor advances — and the ack goes out — only on the final chunk, so a
// torn snapshot is never acked and the next session restarts it. Chunks
// overwrite raw: the image is at least as new as anything the replica
// holds, and records newer than coverSeq that it happens to include are
// re-asserted by the batches that follow.
func (r *Replica) applySnapshot(c net.Conn, payload []byte) bool {
	h, data, err := decodeSnapshot(payload)
	if err != nil {
		r.Stats.QuarantinedFrames.Add(1)
		r.err = err
		return false
	}
	if h.segSize != r.size {
		r.Stats.QuarantinedFrames.Add(1)
		r.err = fmt.Errorf("logship: snapshot of a %d-byte segment, replica is %d", h.segSize, r.size)
		return false
	}
	r.cons.ApplyImage(h.off, data)
	r.Stats.SnapshotBytes.Add(uint64(len(data)))
	if uint64(h.off)+uint64(len(data)) < uint64(h.segSize) {
		return true // more chunks coming
	}
	r.Stats.SnapshotsApplied.Add(1)
	if h.coverSeq > r.lastSeq {
		r.lastSeq = h.coverSeq
	}
	if r.markerLimit > 0 {
		// The image replaced whatever transaction state we were tracking.
		// If its marker word shows an open transaction, we hold its
		// writes without their pre-images — note that, so Rollback can
		// refuse instead of pretending.
		r.undo = r.undo[:0]
		r.inflight = false
		m := r.cons.Word(0)
		r.inflightUnknown = m != 0 && m&recovery.MarkerCommit == 0
	}
	return r.sendAck(c, r.lastSeq)
}

// applyBatch validates and applies every record of a batch through the
// shared logcursor walk (apply-all view: the replica image keeps the
// producer's marker words; rollback is the undo ledger's job). The first
// invalid record quarantines the remainder, reports false, and leaves
// lastSeq untouched so the batch is not acked.
func (r *Replica) applyBatch(h batchHeader, records []byte) bool {
	src := logcursor.NewBytesSource(records[:int(h.count)*logrec.Size], r.size)
	w := logcursor.NewWalker(logcursor.Config{
		View: logcursor.ApplyAll,
		End:  src.End(),
		Apply: func(rec logcursor.Rec) {
			if r.markerLimit > 0 {
				r.track(rec)
			}
			r.cons.ApplyRecord(rec.Off, rec.Value, rec.Size)
			r.Stats.RecordsApplied.Add(1)
		},
	})
	if st := logcursor.Run(src, w); st.Quarantined() {
		r.Stats.QuarantinedFrames.Add(1)
		r.Stats.QuarantinedRecords.Add(uint64(int(h.count) - st.Bad.Idx))
		r.err = fmt.Errorf("logship: invalid record %d/%d (off %#x size %d): quarantined",
			st.Bad.Idx, h.count, st.Bad.Off, st.Bad.Size)
		return false
	}
	r.Stats.BatchesApplied.Add(1)
	return true
}

// track maintains the undo ledger across one record. A whole-word store
// into the marker area (logcursor.IsMarker — the same classifier the
// recovery replay brackets transactions with) opens (begin: seq, commit
// bit clear) and closes (commit: seq|MarkerCommit) transactions; while
// one is open, every word about to be overwritten is saved first.
func (r *Replica) track(rec logcursor.Rec) {
	if logcursor.IsMarker(rec.Off, rec.Size, r.markerLimit) {
		if rec.Value&recovery.MarkerCommit != 0 {
			// Commit marker: the transaction is whole on this replica.
			r.undo = r.undo[:0]
			r.inflight = false
			r.inflightUnknown = false
			return
		}
		// Begin marker: root a fresh ledger at the pre-begin marker word.
		r.undo = append(r.undo[:0], undoWord{rec.Off, r.cons.Word(rec.Off)})
		r.inflight = true
		r.inflightUnknown = false
		return
	}
	if !r.inflight {
		return
	}
	for w := rec.Off &^ 3; w < rec.Off+uint32(rec.Size); w += 4 {
		r.undo = append(r.undo, undoWord{w, r.cons.Word(w)})
	}
}

// Rollback settles the replica at its last transaction boundary: the
// pre-images of a half-replicated open transaction are restored in
// reverse, leaving exactly the state every acknowledged commit marker
// covers. It reports the words restored. Call only while disconnected —
// this is the freeze step of a promotion.
func (r *Replica) Rollback() (int, error) {
	<-r.done
	if r.inflightUnknown {
		return 0, fmt.Errorf("logship: replica image holds an open transaction with no pre-images; cannot roll back")
	}
	n := len(r.undo)
	for i := n - 1; i >= 0; i-- {
		u := r.undo[i]
		r.cons.ApplyRecord(u.off, u.val, 4)
	}
	r.undo = r.undo[:0]
	r.inflight = false
	r.Stats.RolledBack.Add(uint64(n))
	return n, nil
}

// Image dumps the replica segment — the state a promotion boots the new
// primary from. Call only while disconnected, after Rollback if the
// segment follows the marker protocol.
func (r *Replica) Image() []byte {
	<-r.done
	img := make([]byte, r.size)
	r.cons.ReadInto(0, img)
	return img
}

// Epoch reports the last generation a welcome taught this replica. Call
// only while disconnected.
func (r *Replica) Epoch() uint32 { return r.epoch }

// SetEpoch seeds the fencing floor: a replica told the promoted
// generation refuses any shipper behind it, even before first contact
// with the new primary. Call only while disconnected.
func (r *Replica) SetEpoch(e uint32) {
	<-r.done
	if e > r.epoch {
		r.epoch = e
	}
}

// Done exposes the current session's termination channel: closed when no
// consume goroutine is running.
func (r *Replica) Done() <-chan struct{} { return r.done }

func (r *Replica) sendAck(c net.Conn, seq uint64) bool {
	if _, err := c.Write(encodeFrame(typeAck, encodeAck(seq))); err != nil {
		r.err = err
		return false
	}
	r.Stats.AcksSent.Add(1)
	return true
}

// sendBeatAck acknowledges receipt of lease beat seq — the delivery
// evidence half of the beat round trip (Shipper.LeaseEvidence).
func (r *Replica) sendBeatAck(c net.Conn, seq uint64) bool {
	if _, err := c.Write(encodeFrame(typeBeatAck, encodeAck(seq))); err != nil {
		r.err = err
		return false
	}
	r.Stats.BeatAcksSent.Add(1)
	return true
}
