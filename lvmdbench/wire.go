package main

import (
	"encoding/binary"
	"fmt"

	"lvm/internal/logship"
)

// The lvmd client protocol's fixed little-endian payload layouts, as
// documented in internal/lvmd/wire.go. The benchmark drives the daemon
// from outside, so it encodes them itself and frames them with
// logship.EncodeFrame like any other client.
const (
	openRespSize   = 24
	commitRespSize = 24
	readRespHdr    = 16

	statusOK = byte(0)
)

var le = binary.LittleEndian

func openFrame(seg uint64) []byte {
	var p [8]byte
	le.PutUint64(p[:], seg)
	return logship.EncodeFrame(logship.FrameOpen, p[:])
}

func storeFrame(seg uint64, off, val uint32) []byte {
	var p [16]byte
	le.PutUint64(p[:], seg)
	le.PutUint32(p[8:], off)
	le.PutUint32(p[12:], val)
	return logship.EncodeFrame(logship.FrameStore, p[:])
}

func commitFrame(seg, clientSeq uint64) []byte {
	var p [16]byte
	le.PutUint64(p[:], seg)
	le.PutUint64(p[8:], clientSeq)
	return logship.EncodeFrame(logship.FrameCommit, p[:])
}

func readReqFrame(seg uint64, off, n uint32) []byte {
	var p [16]byte
	le.PutUint64(p[:], seg)
	le.PutUint32(p[8:], off)
	le.PutUint32(p[12:], n)
	return logship.EncodeFrame(logship.FrameRead, p[:])
}

// Reply encoders mirror what the daemon sends back; the traced replay
// uses them to time the reply half of the framing layer.
func commitRespFrame(seg, clientSeq uint64, shardSeq uint32) []byte {
	var p [commitRespSize]byte
	le.PutUint64(p[:], seg)
	le.PutUint64(p[8:], clientSeq)
	le.PutUint32(p[16:], shardSeq)
	return logship.EncodeFrame(logship.FrameCommitResp, p[:])
}

func readRespFrame(seg uint64, off uint32, data []byte) []byte {
	p := make([]byte, readRespHdr+len(data))
	le.PutUint64(p, seg)
	le.PutUint32(p[8:], off)
	copy(p[readRespHdr:], data)
	return logship.EncodeFrame(logship.FrameReadResp, p)
}

type openResp struct {
	seg      uint64
	slotSize uint32
	status   byte
}

func decodeOpenResp(p []byte) (openResp, error) {
	if len(p) != openRespSize {
		return openResp{}, fmt.Errorf("openResp payload %d bytes", len(p))
	}
	return openResp{seg: le.Uint64(p), slotSize: le.Uint32(p[12:]), status: p[20]}, nil
}

type commitResp struct {
	seg, clientSeq uint64
	status         byte
}

func decodeCommitResp(p []byte) (commitResp, error) {
	if len(p) != commitRespSize {
		return commitResp{}, fmt.Errorf("commitResp payload %d bytes", len(p))
	}
	return commitResp{seg: le.Uint64(p), clientSeq: le.Uint64(p[8:]), status: p[20]}, nil
}

type readResp struct {
	seg    uint64
	off    uint32
	status byte
	data   []byte
}

func decodeReadResp(p []byte) (readResp, error) {
	if len(p) < readRespHdr {
		return readResp{}, fmt.Errorf("readResp payload %d bytes", len(p))
	}
	return readResp{seg: le.Uint64(p), off: le.Uint32(p[8:]), status: p[12], data: p[readRespHdr:]}, nil
}
