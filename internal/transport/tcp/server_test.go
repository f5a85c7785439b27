package tcp

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"sherman/internal/transport"
)

// countingConn counts the Write calls made on it: the server's flush count.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeServer returns a server with no listener and one grown chunk at
// offset 0: enough to run serveConn directly over a net.Pipe.
func pipeServer() *Server {
	srv := &Server{st: newStore()}
	srv.st.grow()
	return srv
}

// pipeServe runs srv's connection loop on the server end of a net.Pipe,
// optionally wrapped, and returns the client end plus a channel closed when
// the loop returns. Closing the client end stops the loop.
func pipeServe(tb testing.TB, srv *Server, wrap func(net.Conn) net.Conn) (net.Conn, <-chan struct{}) {
	tb.Helper()
	client, server := net.Pipe()
	if wrap != nil {
		server = wrap(server)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(server)
	}()
	tb.Cleanup(func() {
		client.Close()
		<-done
	})
	return client, done
}

func writeBatchPayload(ops ...transport.WriteOp) []byte {
	b := appendU32(nil, uint32(len(ops)))
	for _, op := range ops {
		b = appendU32(appendU64(b, uint64(op.Addr)), uint32(len(op.Data)))
		b = append(b, op.Data...)
	}
	return b
}

func cas16Payload(a transport.Addr, old, new uint16) []byte {
	return append(appendU64(nil, uint64(a)), byte(old), byte(old>>8), byte(new), byte(new>>8))
}

func faaPayload(a transport.Addr, delta uint64) []byte {
	return appendU64(appendU64(nil, uint64(a)), delta)
}

// TestServeOneFlushPerBurst pins the connection loop's batching: eight mixed
// requests arriving in one segment — reads, on-chip CAS16s, write-back +
// unlock doorbell batches, FAAs — are all answered, each under its own tag
// with its own payload, and the answers leave in a single Write.
func TestServeOneFlushPerBurst(t *testing.T) {
	srv := pipeServer()
	chunk := srv.st.snap.Load().chunks[0]
	for i := 0; i < 64; i++ {
		chunk[i] = byte(i + 1)
	}
	putU64(chunk[128:], 10)

	var cc *countingConn
	c, done := pipeServe(t, srv, func(conn net.Conn) net.Conn {
		cc = &countingConn{Conn: conn}
		return cc
	})

	host := func(off uint64) transport.Addr { return transport.MakeAddr(0, off) }
	chip := func(off uint64) transport.Addr { return transport.MakeOnChipAddr(0, off) }
	reqs := []struct {
		op      byte
		payload []byte
		want    []byte
	}{
		{opRead, readPayload(host(0), 8), chunk[0:8:8]},
		{opCAS16, cas16Payload(chip(0), 0, 0x1234), []byte{0, 0, 1}},
		{opWriteBatch, writeBatchPayload(
			transport.WriteOp{Addr: host(64), Data: []byte{9, 9, 9, 9}},
			transport.WriteOp{Addr: chip(0), Data: []byte{0, 0}}), nil},
		{opFAA, faaPayload(host(128), 5), appendU64(nil, 10)},
		{opRead, readPayload(host(8), 16), append([]byte(nil), chunk[8:24]...)},
		{opCAS16, cas16Payload(chip(64), 7, 8), []byte{0, 0, 0}},
		{opWriteBatch, writeBatchPayload(transport.WriteOp{Addr: host(256), Data: []byte{7}}), nil},
		{opFAA, faaPayload(host(136), 1), appendU64(nil, 0)},
	}
	var burst []byte
	for i, rq := range reqs {
		burst = appendFrame(burst, uint32(100+i), rq.op, rq.payload)
	}
	werr := make(chan error, 1)
	go func() {
		_, err := c.Write(burst)
		werr <- err
	}()

	r := bufio.NewReader(c)
	seen := map[uint32]bool{}
	for range reqs {
		tag, status, resp, err := readFrame(r)
		if err != nil {
			t.Fatalf("reading responses: %v", err)
		}
		i := int(tag) - 100
		if i < 0 || i >= len(reqs) || seen[tag] {
			t.Fatalf("unexpected response tag %d", tag)
		}
		seen[tag] = true
		if status != statusOK {
			t.Fatalf("tag %d (op %d): status %d, %q", tag, reqs[i].op, status, resp)
		}
		if !bytes.Equal(resp, reqs[i].want) {
			t.Fatalf("tag %d (op %d): payload %v, want %v", tag, reqs[i].op, resp, reqs[i].want)
		}
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done
	if n := cc.writes.Load(); n != 1 {
		t.Fatalf("server issued %d Writes for one inbound burst, want 1", n)
	}
	if !bytes.Equal(chunk[64:68], []byte{9, 9, 9, 9}) || chunk[256] != 7 || leU64(chunk[128:]) != 15 || leU64(chunk[136:]) != 1 {
		t.Fatal("write batches or FAAs did not land in the store")
	}
}

// fuzzFrames decodes a fuzz input into well-framed requests: each is an
// opcode byte, a payload length byte and that many payload bytes (fewer at
// the end of the input). Grow and Shutdown are dropped — one would allocate
// a chunk per call, the other ends the connection — so every input keeps
// the store at the single chunk the oracle assumes.
func fuzzFrames(data []byte) (ops []byte, payloads [][]byte) {
	for len(data) >= 2 && len(ops) < 64 {
		op, n := data[0], int(data[1])
		data = data[2:]
		n = min(n, len(data))
		p := data[:n]
		data = data[n:]
		if op == opGrow || op == opShutdown {
			continue
		}
		ops = append(ops, op)
		payloads = append(payloads, p)
	}
	return ops, payloads
}

// readBytesRequested sums what the Read and ReadBatch requests ask the
// server to return, as far as their payloads parse.
func readBytesRequested(ops []byte, payloads [][]byte) int {
	total := 0
	for i, op := range ops {
		p := payloadReader{b: payloads[i]}
		switch op {
		case opRead:
			p.u64()
			if n := int(p.u32()); p.err == nil {
				total += n
			}
		case opReadBatch:
			count := int(p.u32())
			for j := 0; j < count && p.err == nil; j++ {
				p.u64()
				if n := int(p.u32()); p.err == nil {
					total += n
				}
			}
		}
	}
	return total
}

// inRange is the oracle's own bounds check for a server holding one host
// chunk at offset 0 and the on-chip region.
func inRange(a transport.Addr, n int) bool {
	off := a.Off()
	if a.OnChip() {
		return off+uint64(n) <= OnChipBytes
	}
	return off < chunkSize && off+uint64(n) <= chunkSize
}

// FuzzServe drives arbitrary well-framed requests through the connection
// loop. The server must never panic or hang; every request gets exactly one
// response under its own tag; single-address verbs are answered statusOK
// with their fixed-size result when the address is in range and statusErr
// when it is not; unknown opcodes get statusErr; and a Ping sent after all
// the garbage is still answered.
func FuzzServe(f *testing.F) {
	f.Add([]byte{opPing, 0})
	var srv *Server
	var once sync.Once
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, payloads := fuzzFrames(data)
		if readBytesRequested(ops, payloads) > 1<<20 {
			t.Skip("input asks for more than 1 MB of reads")
		}
		// One server per fuzz process: each grown chunk is 8 MB.
		once.Do(func() { srv = pipeServer() })
		c, _ := pipeServe(t, srv, nil)

		var reqs []byte
		for i := range ops {
			reqs = appendFrame(reqs, uint32(i), ops[i], payloads[i])
		}
		pingTag := uint32(len(ops))
		reqs = appendFrame(reqs, pingTag, opPing, nil)
		werr := make(chan error, 1)
		go func() {
			_, err := c.Write(reqs)
			werr <- err
		}()

		r := bufio.NewReader(c)
		var buf []byte
		var hdr [frameHeader]byte
		for i := 0; i <= len(ops); i++ {
			tag, status, resp, err := readFrameInto(r, buf, &hdr)
			buf = resp
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			if tag != uint32(i) {
				t.Fatalf("response %d carries tag %d", i, tag)
			}
			if status != statusOK && status != statusErr {
				t.Fatalf("response %d: status byte %d", i, status)
			}
			if tag == pingTag {
				if status != statusOK || len(resp) != 16 {
					t.Fatalf("closing ping: status %d, %d-byte payload", status, len(resp))
				}
				continue
			}
			checkFuzzResponse(t, ops[i], payloads[i], status, resp)
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
	})
}

// checkFuzzResponse applies the oracle to one response.
func checkFuzzResponse(t *testing.T, op byte, payload []byte, status byte, resp []byte) {
	t.Helper()
	if op < opPing || op > opStats {
		if status != statusErr {
			t.Fatalf("unknown opcode %d: status %d", op, status)
		}
		return
	}
	p := payloadReader{b: payload}
	a := transport.Addr(p.u64())
	var n, want int
	switch op {
	case opRead:
		n = int(p.u32())
		want = n
	case opCAS:
		p.u64()
		p.u64()
		n, want = 8, 9
	case opCAS16:
		p.u16()
		p.u16()
		n, want = 2, 3
	case opFAA:
		p.u64()
		n, want = 8, 8
	default:
		return
	}
	switch {
	case p.err != nil:
		if status != statusErr {
			t.Fatalf("op %d with %d-byte payload: status %d, want statusErr", op, len(payload), status)
		}
	case !inRange(a, n):
		if status != statusErr {
			t.Fatalf("op %d at %v (+%d) is out of range: status %d, want statusErr", op, a, n, status)
		}
	case status != statusOK || len(resp) != want:
		t.Fatalf("op %d at %v (+%d): status %d, %d-byte result, want statusOK and %d", op, a, n, status, len(resp), want)
	}
}

// benchServe measures one request/response through the connection loop
// over a net.Pipe: request decode, the verb against the store, response
// framing and the flush. allocs/op counts both ends and must read 0.
func benchServe(b *testing.B, op byte, payload []byte) {
	c, _ := pipeServe(b, pipeServer(), nil)
	req := appendFrame(nil, 1, op, payload)
	r := bufio.NewReader(c)
	var buf []byte
	var hdr [frameHeader]byte
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		_, status, resp, err := readFrameInto(r, buf, &hdr)
		buf = resp
		if err != nil || status != statusOK {
			b.Fatalf("status %d, err %v", status, err)
		}
	}
	roundTrip() // warm the reusable buffers at both ends
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkServeRead serves a 1 KB node read (the default node size).
func BenchmarkServeRead(b *testing.B) {
	benchServe(b, opRead, readPayload(transport.MakeAddr(0, 4096), 1024))
}

// BenchmarkServeCAS16 serves an on-chip lock-word CAS16 (it fails after the
// first round, which costs the same).
func BenchmarkServeCAS16(b *testing.B) {
	benchServe(b, opCAS16, cas16Payload(transport.MakeOnChipAddr(0, 64), 0, 1))
}

// BenchmarkServeWriteBatch serves the combined write-back + unlock doorbell:
// a 64-byte entry write and a 2-byte on-chip lock release in one frame.
func BenchmarkServeWriteBatch(b *testing.B) {
	benchServe(b, opWriteBatch, writeBatchPayload(
		transport.WriteOp{Addr: transport.MakeAddr(0, 4096), Data: make([]byte, 64)},
		transport.WriteOp{Addr: transport.MakeOnChipAddr(0, 64), Data: make([]byte, 2)}))
}
