package lvmd

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lvm/internal/logship"
	"lvm/internal/metrics"
)

// ServerConfig tunes the daemon.
type ServerConfig struct {
	// Dir is the data directory: shard-N.ckpt and shard-N.tail per shard.
	Dir string
	// Shards is the shard-group count (default 8); Shard the per-shard
	// template (its Core.Disk/Tail are filled per shard from Dir).
	Shards int
	Shard  ShardConfig
	// Policy is the slow-client policy for the shard op queue and each
	// session's outbound queue: PolicyStall waits StallTimeout then kills
	// the connection, PolicyDrop kills immediately.
	Policy       logship.Policy
	StallTimeout time.Duration
	// MaxTxnStores bounds the stores a session holds buffered awaiting
	// their commits, summed over every segment (default 1024): a session
	// that goes past it is a bad frame and is disconnected. lvmd.Client
	// sends each transaction's stores and its commit back to back, so it
	// holds one segment's stores at a time. WriteQueue bounds the
	// outbound frames queued per session (default 256).
	MaxTxnStores int
	WriteQueue   int
	// IdleTimeout is the per-session read deadline, refreshed before
	// every frame (default 2 minutes — generous: it exists to reap
	// half-open and abandoned clients, not to police think time). A
	// session that sends nothing for this long is disconnected and
	// counted in HostStats.IdleExpired; without it a dead peer pins a
	// goroutine and a tracked conn forever — exactly the silent-failure
	// mode lease detection exists to catch on the serving side.
	IdleTimeout time.Duration
	// Boot, when non-nil (one entry per shard), seeds each shard from a
	// promoted replica image instead of recovering from Dir's files: the
	// image is installed as the shard's arena, its first checkpoint makes
	// the promoted state durable in Dir, and the shard's shipper serves
	// the granted epoch so zombie-generation subscribers are fenced.
	Boot []BootShard
}

// BootShard is one shard's promoted state: a rolled-back replica image,
// the transaction sequence its marker word holds, and the fencing epoch
// the promotion granted.
type BootShard struct {
	Img   []byte
	Seq   uint32
	Epoch uint32
}

func (c *ServerConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	if c.MaxTxnStores <= 0 {
		c.MaxTxnStores = 1024
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
}

// HostStats are the daemon's host-side counters (the simulated machines'
// own metrics live in the drain report — they are single-writer state of
// the shard goroutines and are only read once those quiesce).
type HostStats struct {
	Accepted     uint64 `json:"accepted"`
	Sessions     int64  `json:"sessions"`
	Subscribers  uint64 `json:"subscribers"`
	KilledStall  uint64 `json:"killed_stall"`
	KilledDrop   uint64 `json:"killed_drop"`
	BadFrames    uint64 `json:"bad_frames"`
	RefusedDrain uint64 `json:"refused_drain"`
	Migrations   uint64 `json:"migrations"`
	IdleExpired  uint64 `json:"idle_expired"`
}

// Server is the lvmd daemon: an accept loop feeding per-shard
// single-writer goroutines through bounded queues.
type Server struct {
	cfg    ServerConfig
	shards []*Shard
	disks  []*FileDisk
	tails  []*TailFile
	info   []RecoverInfo

	ln       net.Listener
	mu       sync.Mutex
	sessions map[net.Conn]struct{}
	draining atomic.Bool
	acceptWG sync.WaitGroup
	sessWG   sync.WaitGroup

	// reroute overrides the hash route for migrated segments: segID →
	// shard index of the current owner. Rebuilt from the directory marks
	// at boot, updated at each cutover flip.
	routeMu sync.RWMutex
	reroute map[uint64]int
	migMu   sync.Mutex // serializes migrations

	accepted    atomic.Uint64
	sessionsNow atomic.Int64
	subscribers atomic.Uint64
	killedStall atomic.Uint64
	killedDrop  atomic.Uint64
	badFrames   atomic.Uint64
	refused     atomic.Uint64
	migrations  atomic.Uint64
	idleExpired atomic.Uint64
}

// NewServer recovers (or creates) every shard from cfg.Dir and starts
// their goroutines. It does not accept connections until Serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg.fill()
	s := &Server{cfg: cfg, sessions: make(map[net.Conn]struct{}), reroute: make(map[uint64]int)}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lvmd: data dir: %w", err)
	}
	if cfg.Boot != nil && len(cfg.Boot) != cfg.Shards {
		return nil, fmt.Errorf("lvmd: %d boot images for %d shards", len(cfg.Boot), cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		disk, tail, err := openShardFiles(cfg.Dir, i)
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		s.disks, s.tails = append(s.disks, disk), append(s.tails, tail)
		shCfg := cfg.Shard
		shCfg.Core.Disk, shCfg.Core.Tail = disk, tail
		var img []byte
		var info RecoverInfo
		if cfg.Boot != nil {
			img, info = cfg.Boot[i].Img, RecoverInfo{Seq: cfg.Boot[i].Seq}
			// The grant flows through the core so the post-recovery
			// checkpoint persists it: a later restart of this daemon (no
			// Boot) then elects past it instead of falling back to the
			// checkpoint generation and fencing itself out.
			shCfg.Core.Epoch = cfg.Boot[i].Epoch
		} else {
			img, info, err = RecoverImage(shCfg.Core, tail)
			if err != nil {
				s.closeFiles()
				return nil, fmt.Errorf("lvmd: shard %d recovery: %w", i, err)
			}
		}
		sh, err := NewShard(i, shCfg, img, info.Seq)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("lvmd: shard %d: %w", i, err)
		}
		s.shards, s.info = append(s.shards, sh), append(s.info, info)
	}
	if err := s.scanOwnership(); err != nil {
		s.Drain()
		return nil, err
	}
	return s, nil
}

// scanOwnership rebuilds the migration route table from the recovered
// directories and resolves a crash mid-migration: an untombstoned owner
// always serves; a receiving copy serves — and is activated — only when
// no owner claims the segment (the source's tombstone committed, which
// by the cutover's fence order proves this copy is complete).
func (s *Server) scanOwnership() error {
	owners := make(map[uint64]int)
	recv := make(map[uint64]int)
	for i, sh := range s.shards {
		var tenants []uint64
		var receiving map[uint64]bool
		ran, err := sh.Exec(func(c *ShardCore) bool {
			tenants = c.Tenants()
			receiving = make(map[uint64]bool, len(tenants))
			for _, id := range tenants {
				receiving[id] = c.Receiving(id)
			}
			return false
		}, s.cfg.StallTimeout)
		if err != nil || !ran {
			return fmt.Errorf("lvmd: shard %d ownership scan failed", i)
		}
		for _, id := range tenants {
			if receiving[id] {
				recv[id] = i
			} else {
				owners[id] = i
			}
		}
	}
	for id, i := range owners {
		if s.homeShard(id) != i {
			s.reroute[id] = i
		}
	}
	for id, i := range recv {
		if _, owned := owners[id]; owned {
			continue // migration aborted: the copy is inert, the owner serves
		}
		sh := s.shards[i]
		var aerr error
		ran, err := sh.Exec(func(c *ShardCore) bool {
			aerr = c.Activate(id)
			return aerr == nil
		}, s.cfg.StallTimeout)
		if err != nil || !ran {
			return fmt.Errorf("lvmd: shard %d activation failed", i)
		}
		if aerr != nil {
			return fmt.Errorf("lvmd: segment %d activation: %w", id, aerr)
		}
		if s.homeShard(id) != i {
			s.reroute[id] = i
		}
	}
	return nil
}

func openShardFiles(dir string, i int) (*FileDisk, *TailFile, error) {
	disk, err := OpenFileDisk(filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", i)))
	if err != nil {
		return nil, nil, err
	}
	tail, err := OpenTail(filepath.Join(dir, fmt.Sprintf("shard-%d.tail", i)))
	if err != nil {
		disk.Close()
		return nil, nil, err
	}
	return disk, tail, nil
}

func (s *Server) closeFiles() {
	for _, d := range s.disks {
		d.Close()
	}
	for _, t := range s.tails {
		t.Close()
	}
}

// RecoverInfos reports what each shard's boot recovery did.
func (s *Server) RecoverInfos() []RecoverInfo { return s.info }

// Shards reports the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// homeShard is a segment ID's hash home (splitmix finalizer — the same
// hash everywhere, or restarts would scatter tenants).
func (s *Server) homeShard(segID uint64) int {
	h := segID
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int(h % uint64(len(s.shards)))
}

// route resolves a segment ID to its current owner: the migration
// override if one exists, the hash home otherwise.
func (s *Server) route(segID uint64) *Shard {
	s.routeMu.RLock()
	i, ok := s.reroute[segID]
	s.routeMu.RUnlock()
	if ok {
		return s.shards[i]
	}
	return s.shards[s.homeShard(segID)]
}

// Owner reports the shard index currently serving segID (hash home or
// migration override) — the `from` a Migrate caller plans around.
func (s *Server) Owner(segID uint64) int { return s.route(segID).ID }

// Serve accepts client connections until the listener closes (Drain).
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: drain
			}
			if s.draining.Load() {
				conn.Close()
				continue
			}
			s.accepted.Add(1)
			s.track(conn, true)
			s.sessWG.Add(1)
			go s.session(conn)
		}
	}()
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.sessions[conn] = struct{}{}
		s.sessionsNow.Add(1)
	} else if _, ok := s.sessions[conn]; ok {
		delete(s.sessions, conn)
		s.sessionsNow.Add(-1)
	}
	s.mu.Unlock()
}

// untrack removes a connection without closing it (subscriber handoff).
func (s *Server) untrack(conn net.Conn) { s.track(conn, false) }

// session owns one client connection: a reader loop decoding frames and
// a writer goroutine draining the response queue. Responses are enqueued
// by shard goroutines via the reply closure; a queue that stays full
// past the policy's patience kills the connection — backpressure reaches
// the client as disconnection, never as an unbounded buffer.
func (s *Server) session(conn net.Conn) {
	defer s.sessWG.Done()
	defer s.track(conn, false)

	// The first frame decides the connection's role, and is read
	// unbuffered: a subscriber handoff must leave the shipper's bytes
	// (the logship hello that follows) unread on the socket. Every read
	// sits behind the idle deadline so a half-open or silent client is
	// reaped instead of pinning this goroutine forever.
	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //errgate:ok — a conn that can't set deadlines fails the read instead
	typ, payload, err := logship.ReadFrame(conn)
	if err != nil {
		s.noteIdle(err)
		conn.Close()
		return
	}
	if typ == logship.FrameSubscribe {
		shardID, err := decodeSubscribe(payload)
		if err != nil || shardID >= uint32(len(s.shards)) || s.draining.Load() {
			s.badFrames.Add(1)
			conn.Close()
			return
		}
		// The shipper paces its own handshake deadline; the session's
		// idle policy must not leak onto the adopted conn.
		_ = conn.SetReadDeadline(time.Time{}) //errgate:ok — the shipper re-arms its own deadline
		s.subscribers.Add(1)
		s.untrack(conn) // the shipper owns (and will close) it now
		s.shards[shardID].Adopt(conn)
		return
	}

	// sessDone, not a channel close, ends the writer and neutralizes the
	// reply closures: shard goroutines may still hold replies for ops
	// this session queued, and a send racing a close would panic. After
	// sessDone every send returns immediately — a shard can never block
	// on a dead session beyond its policy patience.
	out := make(chan []byte, s.cfg.WriteQueue)
	sessDone := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case frame := <-out:
				if _, err := conn.Write(frame); err != nil {
					conn.Close() // unblocks the reader loop too
					return
				}
			case <-sessDone:
				return
			}
		}
	}()
	send := func(typ byte, payload []byte) {
		frame := logship.EncodeFrame(typ, payload)
		if s.cfg.Policy == logship.PolicyDrop {
			select {
			case out <- frame:
			case <-sessDone:
			default:
				s.killedDrop.Add(1)
				conn.Close()
			}
			return
		}
		t := time.NewTimer(s.cfg.StallTimeout)
		defer t.Stop()
		select {
		case out <- frame:
		case <-sessDone:
		case <-writerDone:
		case <-t.C:
			s.killedStall.Add(1)
			conn.Close()
		}
	}

	pending := &txnBuf{bySeg: make(map[uint64][]Write)}
	r := bufio.NewReader(conn)
	for {
		if err := s.handleFrame(conn, typ, payload, pending, send); err != nil {
			break
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //errgate:ok — a conn that can't set deadlines fails the read instead
		typ, payload, err = logship.ReadFrame(r)
		if err != nil {
			s.noteIdle(err)
			break
		}
	}
	conn.Close()
	close(sessDone)
	<-writerDone
}

// noteIdle counts a session read that died on the idle deadline.
func (s *Server) noteIdle(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.idleExpired.Add(1)
	}
}

// stall returns the submit patience for the configured policy.
func (s *Server) stall() time.Duration {
	if s.cfg.Policy == logship.PolicyDrop {
		return 0
	}
	return s.cfg.StallTimeout
}

// txnBuf is a session's stores awaiting their commits, by segment; n
// counts them all against MaxTxnStores.
type txnBuf struct {
	bySeg map[uint64][]Write
	n     int
}

func (s *Server) handleFrame(conn net.Conn, typ byte, payload []byte,
	pending *txnBuf, send func(byte, []byte)) error {
	draining := s.draining.Load()
	switch typ {
	case logship.FrameOpen:
		segID, err := decodeOpen(payload)
		if err != nil {
			s.badFrames.Add(1)
			return err
		}
		if draining {
			s.refused.Add(1)
			send(logship.FrameOpenResp, encodeOpenResp(openResp{segID: segID, status: StatusDraining}))
			return nil
		}
		sh := s.route(segID)
		if !sh.submit(shardOp{kind: opOpen, segID: segID, t0: time.Now(), reply: send}, s.stall()) {
			return s.overloaded(conn)
		}
	case logship.FrameStore:
		st, err := decodeStore(payload)
		if err != nil {
			s.badFrames.Add(1)
			return err
		}
		if pending.n >= s.cfg.MaxTxnStores {
			s.badFrames.Add(1)
			return fmt.Errorf("lvmd: session buffers more than %d uncommitted stores", s.cfg.MaxTxnStores)
		}
		pending.bySeg[st.segID] = append(pending.bySeg[st.segID], Write{Off: st.off, Val: st.val})
		pending.n++
	case logship.FrameCommit:
		cr, err := decodeCommit(payload)
		if err != nil {
			s.badFrames.Add(1)
			return err
		}
		writes := pending.bySeg[cr.segID]
		delete(pending.bySeg, cr.segID)
		pending.n -= len(writes)
		if draining {
			s.refused.Add(1)
			send(logship.FrameCommitResp, encodeCommitResp(commitResp{
				segID: cr.segID, clientSeq: cr.clientSeq, status: StatusDraining}))
			return nil
		}
		sh := s.route(cr.segID)
		if !sh.submit(shardOp{kind: opCommit, segID: cr.segID, writes: writes,
			clientSeq: cr.clientSeq, t0: time.Now(), reply: send}, s.stall()) {
			return s.overloaded(conn)
		}
	case logship.FrameRead:
		rr, err := decodeRead(payload)
		if err != nil {
			s.badFrames.Add(1)
			return err
		}
		sh := s.route(rr.segID)
		if !sh.submit(shardOp{kind: opRead, segID: rr.segID, off: rr.off, n: rr.n,
			t0: time.Now(), reply: send}, s.stall()) {
			return s.overloaded(conn)
		}
	case logship.FrameStats:
		b, err := json.Marshal(s.Stats())
		if err != nil {
			return err
		}
		send(logship.FrameStatsResp, b)
	default:
		s.badFrames.Add(1)
		return fmt.Errorf("lvmd: unexpected frame type %d", typ)
	}
	return nil
}

// overloaded records a submit that exhausted the policy's patience and
// kills the connection: under PolicyStall this only happens after a full
// StallTimeout of a saturated shard queue, under PolicyDrop immediately.
func (s *Server) overloaded(conn net.Conn) error {
	if s.cfg.Policy == logship.PolicyDrop {
		s.killedDrop.Add(1)
	} else {
		s.killedStall.Add(1)
	}
	conn.Close()
	return fmt.Errorf("lvmd: shard queue full")
}

// Stats snapshots the host-side counters.
func (s *Server) Stats() HostStats {
	return HostStats{
		Accepted:     s.accepted.Load(),
		Sessions:     s.sessionsNow.Load(),
		Subscribers:  s.subscribers.Load(),
		KilledStall:  s.killedStall.Load(),
		KilledDrop:   s.killedDrop.Load(),
		BadFrames:    s.badFrames.Load(),
		RefusedDrain: s.refused.Load(),
		Migrations:   s.migrations.Load(),
		IdleExpired:  s.idleExpired.Load(),
	}
}

// ShardReport is one shard's state at drain.
type ShardReport struct {
	Digest   string            `json:"digest"`
	Seq      uint32            `json:"seq"`
	Epoch    uint32            `json:"epoch"`
	Segments int               `json:"segments"`
	Demoted  bool              `json:"demoted,omitempty"`
	Error    string            `json:"error,omitempty"`
	Metrics  *metrics.Snapshot `json:"metrics,omitempty"`
}

// DrainReport is the manifest a clean shutdown leaves behind.
type DrainReport struct {
	Drained bool          `json:"drained"`
	Shards  []ShardReport `json:"shards"`
	Host    HostStats     `json:"host"`
}

// Drain gracefully shuts the daemon down: stop accepting, tear down
// client sessions, then drain every shard — each fences its queue
// remainder, closes its shipper, and commits a final checkpoint behind
// the marker protocol. The report carries per-shard digests so a restart
// can prove byte-identical recovery.
func (s *Server) Drain() DrainReport {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()
	s.mu.Lock()
	for conn := range s.sessions {
		conn.Close()
	}
	s.mu.Unlock()
	s.sessWG.Wait()

	rep := DrainReport{Drained: true}
	for _, sh := range s.shards {
		sh.Close()
		d := sh.Digest()
		sr := ShardReport{
			Digest:   hex.EncodeToString(d[:]),
			Seq:      sh.Core.Seq(),
			Epoch:    sh.Core.Mgr.Epoch(),
			Segments: sh.Core.Segments(),
			Demoted:  sh.Demoted(),
		}
		// The shard goroutine is gone: its simulation metrics are safe to
		// read now.
		if snap := sh.Core.Sys.MetricsSnapshot(); snap != nil {
			sr.Metrics = snap
		}
		if err := sh.Err(); err != nil {
			sr.Error = err.Error()
			rep.Drained = false
		}
		rep.Shards = append(rep.Shards, sr)
	}
	rep.Host = s.Stats()
	s.closeFiles()
	return rep
}
