package lvmd

import (
	"bytes"
	"testing"

	"lvm/internal/logship"
)

// roundTrip requires that a value dec accepts from p re-encodes to a
// payload dec reads back as the same value.
func roundTrip[T comparable](t *testing.T, name string, p []byte, dec func([]byte) (T, error), enc func(T) []byte) {
	if v, err := dec(p); err == nil {
		if v2, err := dec(enc(v)); err != nil || v2 != v {
			t.Fatalf("%s %+v round-trips to %+v, %v", name, v, v2, err)
		}
	}
}

// checkRequest runs every lvmd request and response decoder over p. None
// may panic, and any value one accepts must round-trip.
func checkRequest(t *testing.T, p []byte) {
	roundTrip(t, "open", p, decodeOpen, encodeOpen)
	roundTrip(t, "store", p, decodeStore, encodeStore)
	roundTrip(t, "commit", p, decodeCommit, encodeCommit)
	roundTrip(t, "read", p, decodeRead, encodeRead)
	roundTrip(t, "subscribe", p, decodeSubscribe, encodeSubscribe)
	roundTrip(t, "openResp", p, decodeOpenResp, encodeOpenResp)
	roundTrip(t, "commitResp", p, decodeCommitResp, encodeCommitResp)
	if r, err := decodeReadResp(p); err == nil {
		r2, err := decodeReadResp(encodeReadResp(r))
		if err != nil || r2.segID != r.segID || r2.off != r.off || r2.status != r.status || !bytes.Equal(r2.data, r.data) {
			t.Fatalf("readResp %+v round-trips to %+v, %v", r, r2, err)
		}
	}
}

// FuzzRequestDecode feeds arbitrary bytes to every decoder of the lvmd
// client protocol — the requests a daemon parses from any client and
// the responses a client parses from the daemon. Nothing may panic; a
// frame that reads must re-encode to one that reads back to the same
// type and payload; and every decoded payload must round-trip
// (checkRequest), both as raw bytes and as the payload of a frame.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []struct {
		typ     byte
		payload []byte
	}{
		{logship.FrameOpen, encodeOpen(7)},
		{logship.FrameStore, encodeStore(storeReq{segID: 7, off: 12, val: 0xCAFE})},
		{logship.FrameCommit, encodeCommit(commitReq{segID: 7, clientSeq: 3})},
		{logship.FrameRead, encodeRead(readReq{segID: 7, off: 8, n: 16})},
		{logship.FrameSubscribe, encodeSubscribe(2)},
		{logship.FrameOpenResp, encodeOpenResp(openResp{7, 64, 512, 8192, StatusMoved, 1})},
		{logship.FrameCommitResp, encodeCommitResp(commitResp{7, 3, 9, StatusDemoted})},
		{logship.FrameReadResp, encodeReadResp(readResp{7, 8, StatusOK, []byte{1, 2, 3, 4}})},
		{logship.FrameStats, nil},
	} {
		f.Add(logship.EncodeFrame(seed.typ, seed.payload))
		f.Add(seed.payload)
	}
	// Hand-made payloads with every byte nonzero, so a field an encoder
	// drops fails the round trip on the seed corpus alone.
	for _, n := range []int{4, 8, storeSize, openRespSize} {
		f.Add(bytes.Repeat([]byte{1}, n))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequest(t, data)
		typ, payload, err := logship.ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		typ2, payload2, err := logship.ReadFrame(bytes.NewReader(logship.EncodeFrame(typ, payload)))
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame type %d (%d bytes) re-reads as type %d (%d bytes), %v",
				typ, len(payload), typ2, len(payload2), err)
		}
		checkRequest(t, payload)
	})
}
