package tcp

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/transport"
)

// shortServer answers the first request on its one connection with a
// statusOK frame of n 0xAB bytes, then holds the connection open: only the
// length of that response, never an EOF, can tell the client something is
// wrong.
func shortServer(t *testing.T, n int) string {
	hold := make(chan struct{})
	ep := fakeServer(t, func(c net.Conn) {
		tag, _, _, err := readFrame(bufio.NewReader(c))
		if err != nil {
			return
		}
		writeFrame(c, tag, statusOK, bytes.Repeat([]byte{0xAB}, n))
		<-hold
	})
	t.Cleanup(func() { close(hold) })
	return ep
}

// fakeCluster is a one-server Cluster over an already-running endpoint,
// skipping NewCluster's Ping and superblock handshake so the endpoint sees
// only the verb under test.
func fakeCluster(t *testing.T, ep string) *Cluster {
	return &Cluster{
		endpoints: []string{ep},
		numCS:     1,
		Fwd:       alloc.NewForwarding(),
		dead:      make([]atomic.Bool, 1),
		deadOnce:  make([]sync.Once, 1),
		muxes:     []*muxConn{muxDial(t, ep, 0)},
	}
}

// TestShortResponseMarksDead sends each verb a response one byte short (or,
// for a write batch, one byte long) of what its request fixes. Every verb
// must treat the corrupt stream as a dead server: mark it dead and apply
// dead-memory semantics, never a stale buffer or a value parsed from
// missing bytes.
func TestShortResponseMarksDead(t *testing.T) {
	a := transport.MakeAddr(0, 64)
	stale := func() []byte { return bytes.Repeat([]byte{0xFF}, 8) }
	zero := make([]byte, 8)
	cases := []struct {
		name string
		n    int // response payload length the fake sends
		verb func(t *testing.T, tr *Transport)
	}{
		{"Read", 7, func(t *testing.T, tr *Transport) {
			buf := stale()
			tr.Read(a, buf)
			if !bytes.Equal(buf, zero) {
				t.Fatalf("buf = %v, want zero-filled", buf)
			}
		}},
		{"Await", 7, func(t *testing.T, tr *Transport) {
			buf := stale()
			tr.Await(tr.ReadAsync(a, buf))
			if !bytes.Equal(buf, zero) {
				t.Fatalf("buf = %v, want zero-filled", buf)
			}
		}},
		{"ReadMulti", 7, func(t *testing.T, tr *Transport) {
			buf := stale()
			tr.ReadMulti([]transport.ReadOp{{Addr: a, Buf: buf}})
			if !bytes.Equal(buf, zero) {
				t.Fatalf("buf = %v, want zero-filled", buf)
			}
		}},
		{"PostWrites", 1, func(t *testing.T, tr *Transport) {
			tr.PostWrites(transport.WriteOp{Addr: a, Data: []byte{1}})
		}},
		{"CAS", 8, func(t *testing.T, tr *Transport) {
			if prev, ok := tr.CAS(a, 5, 6); prev != 0 || ok {
				t.Fatalf("CAS = %#x, %v; want the dead-memory 0, false", prev, ok)
			}
		}},
		{"CAS16", 2, func(t *testing.T, tr *Transport) {
			if prev, ok := tr.CAS16(a, 5, 6); prev != 0 || ok {
				t.Fatalf("CAS16 = %#x, %v; want the dead-memory 0, false", prev, ok)
			}
		}},
		{"FAA", 7, func(t *testing.T, tr *Transport) {
			if prev := tr.FAA(a, 1); prev != 0 {
				t.Fatalf("FAA = %#x, want the dead-memory 0", prev)
			}
		}},
		{"GrowChunk", 4, func(t *testing.T, tr *Transport) {
			// Base 0 is also what a dead server yields; the allocator tells
			// the two apart by liveness, checked below.
			if base := tr.GrowChunk(0); base != 0 {
				t.Fatalf("GrowChunk = %#x, want 0", base)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fakeCluster(t, shortServer(t, tc.n))
			tc.verb(t, c.newTransport(0))
			if !c.isDead(0) {
				t.Fatalf("%d-byte response left the server alive", tc.n)
			}
		})
	}
}
