package lvmd

import (
	"net"
	"testing"
	"time"

	"lvm/internal/dsm"
	"lvm/internal/logship"
)

func testServer(t *testing.T, dir string, shards int) (*Server, logship.DialFunc) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Dir:    dir,
		Shards: shards,
		Shard: ShardConfig{
			Core: CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
				AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024},
		},
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	return srv, dial
}

func TestServerLoadDrainRestart(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 4)
	res, model, err := RunLoad(LoadConfig{
		Dial:            dial,
		Clients:         32,
		Segments:        16,
		Duration:        300 * time.Millisecond,
		StoresPerCommit: 4,
		VerifyEvery:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 || res.Acked != res.Sent || res.Deaths != 0 {
		t.Fatalf("load: %+v", res)
	}
	if res.ReadErrors != 0 {
		t.Fatalf("%d read-back mismatches during load", res.ReadErrors)
	}
	rep := srv.Drain()
	if !rep.Drained {
		t.Fatalf("drain not clean: %+v", rep)
	}
	if len(rep.Shards) != 4 {
		t.Fatalf("drain reported %d shards", len(rep.Shards))
	}

	// Restart: every shard must recover byte-identically to its drain
	// digest, and the acked model must read back.
	srv2, dial2 := testServer(t, dir, 4)
	rep2 := srv2.Drain() // immediate drain: digests reflect pure recovery
	for i := range rep.Shards {
		if rep.Shards[i].Digest != rep2.Shards[i].Digest {
			t.Fatalf("shard %d digest changed across restart:\n%s\n%s",
				i, rep.Shards[i].Digest, rep2.Shards[i].Digest)
		}
		if rep.Shards[i].Seq != rep2.Shards[i].Seq {
			t.Fatalf("shard %d seq %d → %d across restart",
				i, rep.Shards[i].Seq, rep2.Shards[i].Seq)
		}
	}

	srv3, dial3 := testServer(t, dir, 4)
	_ = dial2
	checked, bad, err := VerifyModel(dial3, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("model verify: %d/%d words wrong, e.g. %s", len(bad), checked, bad[0])
	}
	if checked == 0 {
		t.Fatal("model verified nothing")
	}
	srv3.Drain()
}

func TestServerSubscriber(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)

	// A subscriber dials the client port and speaks FrameSubscribe first;
	// the daemon hands the raw connection to the shard's shipper and the
	// logship protocol takes over.
	shardID := uint32(0)
	subDial := func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		if _, err := conn.Write(logship.EncodeFrame(logship.FrameSubscribe, encodeSubscribe(shardID))); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
	arenaSize, err := CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64}.ArenaSize()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := logship.NewReplica(subDial, arenaSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Connect(); err != nil {
		t.Fatalf("subscriber connect: %v", err)
	}

	// Drive commits at every shard; only shard 0's flow to the replica.
	res, _, err := RunLoad(LoadConfig{
		Dial:     dial,
		Clients:  8,
		Segments: 8,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 {
		t.Fatalf("no commits acked: %+v", res)
	}
	report := srv.Drain() // drain hands the last batches to the replica
	rep.Kill()
	if rep.Err() != nil {
		// The drain disconnect races the last ack; a closed-conn error is
		// the expected way a shipper session ends.
		t.Logf("replica session end: %v", rep.Err())
	}
	if rep.LastSeq() == 0 {
		t.Fatal("replica never consumed a batch")
	}
	if report.Host.Subscribers != 1 {
		t.Fatalf("host stats counted %d subscribers", report.Host.Subscribers)
	}

	// The replica's segment must match shard 0's drained arena.
	srv2, _ := testServer(t, dir, 2)
	sh0 := srv2.shards[0]
	srv2.Drain()
	if err := dsm.Verify(sh0.Core.Arena, rep.Consumer(), arenaSize); err != nil {
		t.Fatalf("replica diverged from shard 0: %v", err)
	}
}

func TestServerDrainRefusesNewWork(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)
	cl, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Open(7); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(7, []Write{{Off: 0, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	// The drained server killed the connection: further calls fail rather
	// than hang.
	if err := cl.Commit(7, []Write{{Off: 0, Val: 2}}); err == nil {
		t.Fatal("commit succeeded against a drained server")
	}
}

func TestServerStatsFrame(t *testing.T) {
	dir := t.TempDir()
	srv, dial := testServer(t, dir, 2)
	defer srv.Drain()
	cl, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hs, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Accepted == 0 || hs.Sessions == 0 {
		t.Fatalf("stats: %+v", hs)
	}
}

// TestServerBoundsBufferedStores pins MaxTxnStores as a session-wide
// bound: stores spread over ever-new segments that never commit count
// together. A session holding exactly the limit still serves; one more
// store is a bad frame and the connection is closed.
func TestServerBoundsBufferedStores(t *testing.T) {
	const limit = 8
	srv, err := NewServer(ServerConfig{Dir: t.TempDir(), Shards: 1, MaxTxnStores: limit,
		Shard: ShardConfig{Core: CoreConfig{Slots: 16, SlotSize: 512, LogPages: 32}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	cl, err := DialClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for seg := uint64(1); seg <= limit+1; seg++ {
		if seg == limit+1 {
			if _, err := cl.Stats(); err != nil {
				t.Fatalf("session at the limit was dropped: %v", err)
			}
		}
		if _, err := cl.conn.Write(logship.EncodeFrame(logship.FrameStore, encodeStore(storeReq{segID: seg, val: 1}))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Stats(); err == nil {
		t.Fatal("session past the limit still served")
	}
	if got := srv.Stats().BadFrames; got != 1 {
		t.Fatalf("bad_frames = %d, want 1", got)
	}
}
