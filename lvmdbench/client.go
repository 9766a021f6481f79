package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lvm/internal/logship"
)

// model is the acked state the daemon must hold: every word of every
// segment as of the last acknowledged commit. The generator keeps at most
// one commit in flight per segment, so the model stays exact and a read
// has at most one commit it may or may not observe (see checkRead).
type model struct {
	seed  int64
	words [numSegments + 1][]uint32 // indexed by segment ID
}

func newModel(seed int64) *model {
	m := &model{seed: seed}
	for i := range m.words {
		m.words[i] = make([]uint32, slotWords)
	}
	return m
}

// record accumulates one phase's outcome on one connection.
type record struct {
	attempted int
	failed    int
	commits   int
	userBytes int64
	commitLat []sample
	readLat   []sample
	late      []time.Duration // send time minus due time, on-schedule sends
	errs      []string        // first few failure reasons
}

func (r *record) fail(format string, a ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// all returns every answered op's sample, commits and reads.
func (r *record) all() []sample {
	return append(append([]sample(nil), r.commitLat...), r.readLat...)
}

func (r *record) merge(o *record) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.commits += o.commits
	r.userBytes += o.userBytes
	r.commitLat = append(r.commitLat, o.commitLat...)
	r.readLat = append(r.readLat, o.readLat...)
	r.late = append(r.late, o.late...)
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// sample is one answered op: when it was due (from the phase start)
// and its latency from that due time to the reply.
type sample struct {
	at, lat time.Duration
}

type pending struct {
	o   *op
	due time.Time
	rec *record
}

type readKey struct {
	seg uint64
	off uint32
}

// client is a pipelined open-loop lvmd protocol client over one
// connection. lvmd.Client allows one request in flight; this one sends
// every op when it falls due and matches replies by (segID, clientSeq)
// for commits and (segID, off) for reads, so two connections can offer
// any rate. Only the sending goroutine writes to the socket; the
// receiving goroutine never blocks on anything but the socket, so a
// stalled daemon cannot deadlock the pair.
type client struct {
	nc    net.Conn
	m     *model
	rx    atomic.Int64 // bytes received from the daemon
	wake  chan struct{}
	recvd chan struct{} // closed when the receive loop exits

	mu       sync.Mutex
	opens    map[uint64]bool
	slotSize uint32
	commits  map[uint64]*pending   // the one in-flight commit per segment
	parked   map[uint64][]*pending // later commits waiting for it
	reads    map[readKey][]*pending
	ready    []*pending // parked commits released by the receive loop
	inflight int        // sent or parked, not yet answered
	err      error
}

func newClient(nc net.Conn, m *model) *client {
	c := &client{
		nc:      nc,
		m:       m,
		wake:    make(chan struct{}, 1),
		recvd:   make(chan struct{}),
		opens:   make(map[uint64]bool),
		commits: make(map[uint64]*pending),
		parked:  make(map[uint64][]*pending),
		reads:   make(map[readKey][]*pending),
	}
	go c.recvLoop()
	return c
}

// close tears the connection down and waits for the receive loop.
func (c *client) close() {
	c.nc.Close()
	<-c.recvd
}

func (c *client) signal() {
	select {
	case c.wake <- struct{}{}: //errgate:ok — a wake-up is already pending
	default:
	}
}

// countConn counts the bytes read from a connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *client) recvLoop() {
	defer close(c.recvd)
	r := bufio.NewReaderSize(countConn{c.nc, &c.rx}, 64<<10)
	for {
		typ, p, err := logship.ReadFrame(r)
		now := time.Now()
		c.mu.Lock()
		if err == nil {
			err = c.handle(typ, p, now)
		}
		if err != nil && c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		c.signal()
		if err != nil {
			return
		}
	}
}

// handle applies one reply; called with mu held.
func (c *client) handle(typ byte, p []byte, now time.Time) error {
	switch typ {
	case logship.FrameOpenResp:
		r, err := decodeOpenResp(p)
		if err != nil {
			return err
		}
		if !c.opens[r.seg] {
			return fmt.Errorf("open reply for segment %d never asked", r.seg)
		}
		if r.status != statusOK {
			return fmt.Errorf("open segment %d: status %d", r.seg, r.status)
		}
		delete(c.opens, r.seg)
		c.slotSize = r.slotSize
	case logship.FrameCommitResp:
		r, err := decodeCommitResp(p)
		if err != nil {
			return err
		}
		pd := c.commits[r.seg]
		if pd == nil || uint64(pd.o.id) != r.clientSeq {
			return fmt.Errorf("commit reply (seg %d, seq %d) matches nothing in flight", r.seg, r.clientSeq)
		}
		delete(c.commits, r.seg)
		c.inflight--
		pd.rec.commitLat = append(pd.rec.commitLat, sample{pd.o.due, now.Sub(pd.due)})
		if r.status != statusOK {
			pd.rec.fail("commit seg %d: status %d", r.seg, r.status)
		} else {
			words := c.m.words[r.seg]
			pd.o.each(c.m.seed, func(w, v uint32) { words[w] = v })
			pd.rec.commits++
			pd.rec.userBytes += int64(4 * pd.o.storeCount())
		}
		if q := c.parked[r.seg]; len(q) > 0 {
			next := q[0]
			if len(q) == 1 {
				delete(c.parked, r.seg)
			} else {
				c.parked[r.seg] = q[1:]
			}
			c.commits[r.seg] = next
			c.ready = append(c.ready, next)
		}
	case logship.FrameReadResp:
		r, err := decodeReadResp(p)
		if err != nil {
			return err
		}
		k := readKey{r.seg, r.off}
		q := c.reads[k]
		if len(q) == 0 {
			return fmt.Errorf("read reply (seg %d, off %d) matches nothing in flight", r.seg, r.off)
		}
		pd := q[0]
		if len(q) == 1 {
			delete(c.reads, k)
		} else {
			c.reads[k] = q[1:]
		}
		c.inflight--
		pd.rec.readLat = append(pd.rec.readLat, sample{pd.o.due, now.Sub(pd.due)})
		if r.status != statusOK {
			pd.rec.fail("read seg %d off %d: status %d", r.seg, r.off, r.status)
			break
		}
		if err := c.checkRead(pd.o, r.data); err != nil {
			pd.rec.fail("%v", err)
		}
	default:
		return fmt.Errorf("unexpected frame type %d", typ)
	}
	return nil
}

// checkRead judges a read reply; called with mu held. A shard serves a
// batch's reads after applying all of the batch's commits but replies
// in arrival order, so a read may observe the segment's in-flight
// commit sent after it. Every commit acked before the reply arrived
// was applied before the read ran. The reply must therefore equal the
// model, or the model with the in-flight commit applied, atomically.
func (c *client) checkRead(o *op, data []byte) error {
	want := c.m.words[o.seg][o.base : o.base+o.nwords]
	if len(data) != 4*len(want) {
		return fmt.Errorf("read seg %d word %d: %d bytes, want %d", o.seg, o.base, len(data), 4*len(want))
	}
	if matches(data, want) {
		return nil
	}
	if pd := c.commits[o.seg]; pd != nil {
		alt := append([]uint32(nil), want...)
		pd.o.each(c.m.seed, func(w, v uint32) {
			if w >= uint32(o.base) && w < uint32(o.base)+uint32(o.nwords) {
				alt[w-uint32(o.base)] = v
			}
		})
		if matches(data, alt) {
			return nil
		}
	}
	for i, w := range want {
		if got := le.Uint32(data[4*i:]); got != w {
			return fmt.Errorf("read seg %d word %d: got %#x, acked model holds %#x",
				o.seg, int(o.base)+i, got, w)
		}
	}
	return nil
}

func matches(data []byte, words []uint32) bool {
	for i, w := range words {
		if le.Uint32(data[4*i:]) != w {
			return false
		}
	}
	return true
}

// open maps every segment this connection serves and waits for the
// replies. It returns the daemon's slot size.
func (c *client) open(segs []uint64, timeout time.Duration) (uint32, error) {
	w := bufio.NewWriter(c.nc)
	c.mu.Lock()
	for _, s := range segs {
		c.opens[s] = true
	}
	c.mu.Unlock()
	for _, s := range segs {
		if _, err := w.Write(openFrame(s)); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		n, size, err := len(c.opens), c.slotSize, c.err
		c.mu.Unlock()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return size, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%d opens unanswered after %v", n, timeout)
		}
		select {
		case <-c.wake:
		case <-time.After(time.Until(deadline)):
		}
	}
}

// run offers ops on their schedule from start and returns once every op
// is answered. A commit for a segment with a commit in flight is parked
// until that one is answered; its latency still counts from its due
// time. Ops not answered within grace of the last due time fail the
// phase.
func (c *client) run(ops []op, start time.Time, rec *record, grace time.Duration) error {
	w := bufio.NewWriterSize(c.nc, 64<<10)
	var out []*pending
	i := 0
	last := start
	if len(ops) > 0 {
		last = start.Add(ops[len(ops)-1].due)
	}
	deadline := last.Add(grace)
	for {
		now := time.Now()
		c.mu.Lock()
		if c.err != nil {
			err := c.err
			c.mu.Unlock()
			return err
		}
		out = append(out[:0], c.ready...)
		c.ready = c.ready[:0]
		for ; i < len(ops); i++ {
			o := &ops[i]
			due := start.Add(o.due)
			if due.After(now) {
				break
			}
			pd := &pending{o: o, due: due, rec: rec}
			rec.attempted++
			c.inflight++
			if o.read {
				k := readKey{o.seg, 4 * uint32(o.base)}
				c.reads[k] = append(c.reads[k], pd)
			} else if c.commits[o.seg] != nil {
				c.parked[o.seg] = append(c.parked[o.seg], pd)
				continue
			} else {
				c.commits[o.seg] = pd
			}
			rec.late = append(rec.late, now.Sub(due))
			out = append(out, pd)
		}
		done := i == len(ops) && c.inflight == 0
		c.mu.Unlock()
		for _, pd := range out {
			if err := writeOp(w, pd.o, c.m.seed); err != nil {
				return err
			}
		}
		if len(out) > 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		if done {
			return nil
		}
		wait := time.Until(deadline)
		if i < len(ops) {
			wait = time.Until(start.Add(ops[i].due))
		} else if wait <= 0 {
			c.mu.Lock()
			n := c.inflight
			c.mu.Unlock()
			return fmt.Errorf("%d ops unanswered %v after the last was due", n, grace)
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-c.wake:
			case <-t.C:
			}
			t.Stop()
		}
	}
}

func writeOp(w *bufio.Writer, o *op, seed int64) error {
	if o.read {
		_, err := w.Write(readReqFrame(o.seg, 4*uint32(o.base), 4*uint32(o.nwords)))
		return err
	}
	var err error
	o.each(seed, func(word, val uint32) {
		if err == nil {
			_, err = w.Write(storeFrame(o.seg, 4*word, val))
		}
	})
	if err != nil {
		return err
	}
	_, err = w.Write(commitFrame(o.seg, uint64(o.id)))
	return err
}

// fleet is the generator's connections to one daemon, sharing one model.
type fleet struct {
	cl [conns]*client
}

func dialFleet(dial logship.DialFunc, m *model) (*fleet, error) {
	f := &fleet{}
	for i := range f.cl {
		nc, err := dial()
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		f.cl[i] = newClient(nc, m)
	}
	segs := [conns][]uint64{}
	for s := uint64(1); s <= numSegments; s++ {
		segs[s%conns] = append(segs[s%conns], s)
	}
	for i, c := range f.cl {
		size, err := c.open(segs[i], 30*time.Second)
		if err != nil {
			f.close()
			return nil, err
		}
		if size < slotSize {
			f.close()
			return nil, fmt.Errorf("daemon slots are %d bytes, workloads need %d", size, slotSize)
		}
	}
	return f, nil
}

func (f *fleet) close() {
	for _, c := range f.cl {
		if c != nil {
			c.close()
		}
	}
}

func (f *fleet) rxBytes() int64 {
	n := int64(0)
	for _, c := range f.cl {
		n += c.rx.Load()
	}
	return n
}

// run offers a phase's ops over every connection at once and merges the
// per-connection records.
func (f *fleet) run(ops []op, grace time.Duration) (*record, error) {
	parts := split(ops)
	recs := [conns]*record{}
	errs := [conns]error{}
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i, c := range f.cl {
		recs[i] = &record{}
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.run(parts[i], start, recs[i], grace)
		}(i, c)
	}
	wg.Wait()
	all := &record{}
	for _, r := range recs {
		all.merge(r)
	}
	return all, errors.Join(errs[:]...)
}

// readBack reads every segment whole and checks it against the model.
func (f *fleet) readBack(grace time.Duration) (*record, error) {
	ops := make([]op, 0, numSegments)
	for s := uint64(1); s <= numSegments; s++ {
		ops = append(ops, op{seg: s, read: true, nwords: slotWords})
	}
	return f.run(ops, grace)
}
