package logship

import (
	"bytes"
	"testing"

	"lvm/internal/logrec"
)

// checkPayload runs every payload decoder over p. None may panic, and
// any value one accepts must re-encode to a payload that decodes to the
// same value.
func checkPayload(t *testing.T, p []byte) {
	if h, err := decodeHello(p); err == nil {
		if h2, err := decodeHello(encodeHello(h)); err != nil || h2 != h {
			t.Fatalf("hello %+v round-trips to %+v, %v", h, h2, err)
		}
	}
	if w, err := decodeWelcome(p); err == nil {
		if w2, err := decodeWelcome(encodeWelcome(w)); err != nil || w2 != w {
			t.Fatalf("welcome %+v round-trips to %+v, %v", w, w2, err)
		}
	}
	if h, recs, err := decodeBatch(p); err == nil {
		if h2, recs2, err := decodeBatch(encodeBatch(h, recs)); err != nil || h2 != h || !bytes.Equal(recs2, recs) {
			t.Fatalf("batch %+v round-trips to %+v, %v", h, h2, err)
		}
	}
	if seq, err := decodeAck(p); err == nil {
		if seq2, err := decodeAck(encodeAck(seq)); err != nil || seq2 != seq {
			t.Fatalf("ack %d round-trips to %d, %v", seq, seq2, err)
		}
	}
	if h, chunk, err := decodeSnapshot(p); err == nil {
		if h2, chunk2, err := decodeSnapshot(encodeSnapshot(h, chunk)); err != nil || h2 != h || !bytes.Equal(chunk2, chunk) {
			t.Fatalf("snapshot %+v round-trips to %+v, %v", h, h2, err)
		}
	}
	if b, err := decodeBeat(p); err == nil {
		if b2, err := decodeBeat(encodeBeat(b)); err != nil || b2 != b {
			t.Fatalf("beat %+v round-trips to %+v, %v", b, b2, err)
		}
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader and to every
// payload decoder — the code that parses what arrives off the network,
// including the heartbeats a standby promotes on. Nothing may panic; a
// frame that reads must re-encode to one that reads back to the same
// type and payload; and every decoded payload must round-trip
// (checkPayload), both as raw bytes and as the payload of a frame.
func FuzzFrameDecode(f *testing.F) {
	var rec [logrec.Size]byte
	logrec.Record{Addr: 16, Value: 0xCAFE, WriteSize: 4}.Encode(rec[:])
	for _, seed := range []struct {
		typ     byte
		payload []byte
	}{
		{typeHello, encodeHello(hello{lastSeq: 42, epoch: 7, segSize: 4096, flags: helloObserver})},
		{typeWelcome, encodeWelcome(welcome{startSeq: 9, epoch: 2, segSize: 4096})},
		{typeBatch, encodeBatch(batchHeader{baseSeq: 10, endSeq: 12, count: 1}, rec[:])},
		{typeAck, encodeAck(12)},
		{typeSnapshot, encodeSnapshot(snapHeader{coverSeq: 5, segSize: 64, off: 32}, make([]byte, 32))},
		{typeLease, encodeBeat(Beat{Kind: BeatRenew, Epoch: 3, Seq: 8, TTL: 1e9})},
		{typeBeatAck, encodeAck(8)},
	} {
		f.Add(encodeFrame(seed.typ, seed.payload))
		f.Add(seed.payload)
	}
	// Hand-made payloads with every field nonzero, so a field an encoder
	// drops fails the round trip on the seed corpus alone.
	for _, n := range []int{helloSize, welcomeSize, 8, beatSize} {
		f.Add(bytes.Repeat([]byte{1}, n))
	}
	f.Add([]byte{})
	f.Add([]byte("LVSH garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkPayload(t, data)
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		typ2, payload2, err := readFrame(bytes.NewReader(encodeFrame(typ, payload)))
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame type %d (%d bytes) re-reads as type %d (%d bytes), %v",
				typ, len(payload), typ2, len(payload2), err)
		}
		checkPayload(t, payload)
	})
}
