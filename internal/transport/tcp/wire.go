// Package tcp is the real-network transport: memory servers are OS
// processes (cmd/shermand) serving chunks, locks and atomics over a
// length-prefixed binary protocol, and clients implement
// transport.Transport over multiplexed per-server connections with real
// clocks.
//
// Wire protocol (version 2). Every message is one frame:
//
//	[u32 length][u32 tag][u8 opcode][payload]
//
// little-endian, where length covers the tag, the opcode byte and the
// payload. Requests carry an operation opcode and a caller-chosen tag;
// the response echoes the tag and reuses the opcode slot as a status byte
// (statusOK with a result payload, statusErr with a UTF-8 message). Tags
// let many requests share one connection: the client keeps a bounded
// window of tagged slots per server, a writer path coalesces queued frames
// into single flushes, and a reader goroutine demuxes responses by tag (see
// mux.go). Clients rely on the tag alone, never on response order. A
// doorbell batch of dependent writes still coalesces into a single
// WriteBatch frame — one network round trip, the §4.5 batching mapped onto
// TCP.
//
// The server serves each connection on one goroutine, applying its frames
// inline in arrival order and answering a whole inbound burst with one
// Write. Connections share the store under striped per-chunk locks, so
// different clients' requests to different chunks proceed in parallel.
// Each individual verb — and each op of a batch, applied in posted
// order — is atomic under its stripe, which is exactly the per-verb
// atomicity RDMA provides; see DESIGN.md §13 for why the tree protocol
// needs nothing stronger.
package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
)

// protocolVersion is checked during the Ping handshake: a v1 peer (5-byte
// headers) would silently desynchronize a v2 reader, so the version rides
// first in the Ping response and a mismatch fails cluster bring-up.
const protocolVersion = 2

// Request opcodes.
const (
	opPing       byte = 1  // () -> u32 version, u32 onChipSize, u64 serverNowNS (clock epoch)
	opRead       byte = 2  // addr u64, n u32 -> n bytes
	opReadBatch  byte = 3  // count u32, (addr u64, n u32)* -> concatenated bytes
	opWriteBatch byte = 4  // count u32, (addr u64, n u32, data)* applied in order -> ()
	opCAS        byte = 5  // addr u64, old u64, new u64 -> prev u64, swapped u8
	opCAS16      byte = 6  // addr u64, old u16, new u16 -> prev u16, swapped u8
	opFAA        byte = 7  // addr u64, delta u64 -> old u64
	opGrow       byte = 8  // () -> base u64
	opShutdown   byte = 9  // () -> (), then the server exits
	opStats      byte = 10 // () -> total u64, count u32, (chunkOps u64)*
)

// Response status bytes (the opcode slot of a response frame).
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// frameHeader is the fixed prefix of every frame: length, tag, opcode.
const frameHeader = 9

// maxFrame bounds a frame's length field: one chunk plus batching slack.
// A reader that sees a bigger length is desynchronized (or under attack)
// and errors out instead of allocating unboundedly.
const maxFrame = 64 << 20

// appendFrame appends one whole frame to b — the coalescing building block:
// the mux writer path appends several frames to one buffer and flushes them
// with a single Write.
func appendFrame(b []byte, tag uint32, op byte, payload []byte) []byte {
	b = appendU32(b, uint32(5+len(payload)))
	b = appendU32(b, tag)
	b = append(b, op)
	return append(b, payload...)
}

// writeFrame emits one frame with a single Write. payload may be nil.
func writeFrame(w io.Writer, tag uint32, op byte, payload []byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(5+len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], tag)
	hdr[8] = op
	if len(payload) == 0 {
		_, err := w.Write(hdr[:])
		return err
	}
	buf := make([]byte, 0, frameHeader+len(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, returning its tag, opcode (or status) byte and
// payload. A torn or truncated frame — the peer died mid-write — surfaces
// as io.ErrUnexpectedEOF; a length outside [5, maxFrame] as a framing
// error.
func readFrame(r io.Reader) (tag uint32, op byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	tag, op, payload, err = readFrameInto(r, nil, &hdr)
	return
}

// readFrameInto is readFrame reusing buf for the payload when it has the
// capacity — the allocation-free variant the server's request loop runs on.
// The returned payload aliases buf (possibly grown); it is valid until the
// next reuse. hdr is caller-owned header scratch: passed through the
// io.Reader interface it would escape, so a stack-local here costs one heap
// allocation per frame — the caller hoists it out of its loop instead.
func readFrameInto(r io.Reader, buf []byte, hdr *[frameHeader]byte) (tag uint32, op byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 5 || n > maxFrame {
		return 0, 0, buf, fmt.Errorf("tcp: bad frame length %d", n)
	}
	if _, err := io.ReadFull(r, hdr[4:frameHeader]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, buf, err
	}
	tag = binary.LittleEndian.Uint32(hdr[4:8])
	op = hdr[8]
	plen := int(n) - 5
	if cap(buf) < plen {
		buf = make([]byte, plen)
	}
	payload = buf[:plen]
	if plen > 0 {
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, payload, err
		}
	}
	return tag, op, payload, nil
}

// appendU64/appendU32 are the payload builders shared by client and server.
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// payloadReader decodes a request/response payload field by field.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) u64() uint64 {
	if p.err != nil || p.off+8 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

func (p *payloadReader) u32() uint32 {
	if p.err != nil || p.off+4 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) u16() uint16 {
	if p.err != nil || p.off+2 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}

func (p *payloadReader) bytes(n int) []byte {
	if p.err != nil || n < 0 || p.off+n > len(p.b) {
		p.fail()
		return nil
	}
	v := p.b[p.off : p.off+n]
	p.off += n
	return v
}

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("tcp: short payload (%d bytes, need more at offset %d)", len(p.b), p.off)
	}
}
