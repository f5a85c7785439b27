package tcp

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"sherman/internal/transport"
)

// muxDial connects a test mux to endpoint and registers its teardown.
func muxDial(t *testing.T, endpoint string, window int) *muxConn {
	t.Helper()
	m, err := dialMux(0, endpoint, window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.fail)
	return m
}

// growOn grows one chunk on the mux's server and returns its base offset.
func growOn(t *testing.T, m *muxConn) uint64 {
	t.Helper()
	var base uint64
	if !m.roundTrip(opGrow, nil, func(resp []byte) { base = leU64(resp) }) {
		t.Fatal("grow round trip failed")
	}
	return base
}

// writeOn posts one write through the mux's WriteBatch opcode.
func writeOn(t *testing.T, m *muxConn, a transport.Addr, data []byte) {
	t.Helper()
	if !m.roundTrip(opWriteBatch, writeBatchPayload(transport.WriteOp{Addr: a, Data: data}), nil) {
		t.Fatal("write round trip failed")
	}
}

func readPayload(a transport.Addr, n int) []byte {
	return appendU32(appendU64(nil, uint64(a)), uint32(n))
}

// TestMuxOutOfOrderDelivery posts a large read and a small read back to back
// on one multiplexed connection and awaits them in reverse issue order: the
// tag demux must route each response to its own slot no matter which the
// server finishes first.
func TestMuxOutOfOrderDelivery(t *testing.T) {
	endpoints := startServers(t, 1)
	m := muxDial(t, endpoints[0], 0)
	base := growOn(t, m)

	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	bigAddr := transport.MakeAddr(0, base)
	smallAddr := transport.MakeAddr(0, base+(1<<20))
	writeOn(t, m, bigAddr, big)
	writeOn(t, m, smallAddr, small)

	tagBig := m.issue(opRead, readPayload(bigAddr, len(big)))
	tagSmall := m.issue(opRead, readPayload(smallAddr, len(small)))
	if tagBig == tagSmall {
		t.Fatalf("issue reused tag %d while in flight", tagBig)
	}

	// Await the later-issued request first: completion order is the server's
	// business, delivery order is the awaiter's.
	resp, ok := m.await(tagSmall)
	if !ok {
		t.Fatal("small read failed")
	}
	if string(resp) != string(small) {
		t.Fatalf("small read = %v, want %v", resp, small)
	}
	m.release(tagSmall)

	resp, ok = m.await(tagBig)
	if !ok {
		t.Fatal("big read failed")
	}
	if len(resp) != len(big) {
		t.Fatalf("big read %d bytes, want %d", len(resp), len(big))
	}
	for i := range resp {
		if resp[i] != big[i] {
			t.Fatalf("big read byte %d = %d, want %d", i, resp[i], big[i])
		}
	}
	m.release(tagBig)
}

// TestMuxConcurrentSenders hammers one mux from several goroutines, each
// verifying its own distinct pattern — the shared-window, coalesced-writer,
// demuxed-reader path under real contention.
func TestMuxConcurrentSenders(t *testing.T) {
	endpoints := startServers(t, 1)
	m := muxDial(t, endpoints[0], 0)
	base := growOn(t, m)

	const workers = 8
	const rounds = 200
	for w := 0; w < workers; w++ {
		pat := make([]byte, 128)
		for i := range pat {
			pat[i] = byte(w*31 + i)
		}
		writeOn(t, m, transport.MakeAddr(0, base+uint64(w)*4096), pat)
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := transport.MakeAddr(0, base+uint64(w)*4096)
			for r := 0; r < rounds; r++ {
				tag := m.issue(opRead, readPayload(a, 128))
				resp, ok := m.await(tag)
				if !ok {
					errs <- "read failed"
					return
				}
				for i := range resp {
					if resp[i] != byte(w*31+i) {
						m.release(tag)
						errs <- "cross-delivered response payload"
						return
					}
				}
				m.release(tag)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// fakeServer accepts one connection and hands it to fn.
func fakeServer(t *testing.T, fn func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fn(c)
	}()
	return ln.Addr().String()
}

// TestMuxBadTagKillsConnection pins the desynchronization rule: a response
// whose tag is out of range (or not in flight) kills the connection, and
// every pending and future request completes with the error path instead of
// hanging.
func TestMuxBadTagKillsConnection(t *testing.T) {
	ep := fakeServer(t, func(c net.Conn) {
		r := bufio.NewReader(c)
		tag, _, _, err := readFrame(r)
		if err != nil {
			return
		}
		writeFrame(c, tag+1000, statusOK, nil) // way out of the slot table
		// Hold the conn open: only the bad tag, not EOF, must kill it.
		time.Sleep(5 * time.Second)
	})
	m := muxDial(t, ep, 0)
	tag := m.issue(opPing, nil)
	if _, ok := m.await(tag); ok {
		t.Fatal("await succeeded on a desynchronized stream")
	}
	m.release(tag)
	// The mux is terminally dead: a later issue self-completes with err.
	tag = m.issue(opPing, nil)
	if _, ok := m.await(tag); ok {
		t.Fatal("await succeeded on a dead mux")
	}
	m.release(tag)
}

// TestMuxTornFrameFailsPending cuts the response stream mid-frame — once
// inside the header, once inside the payload — and checks that the pending
// request errors out instead of hanging on the torn read.
func TestMuxTornFrameFailsPending(t *testing.T) {
	cases := []struct {
		name string
		fn   func(c net.Conn, tag uint32)
	}{
		{"torn header", func(c net.Conn, tag uint32) {
			c.Write([]byte{42, 0, 0}) // 3 of 9 header bytes
		}},
		{"torn payload", func(c net.Conn, tag uint32) {
			full := appendFrame(nil, tag, statusOK, make([]byte, 100))
			c.Write(full[:frameHeader+10]) // header promises 100, delivers 10
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep := fakeServer(t, func(c net.Conn) {
				r := bufio.NewReader(c)
				tag, _, _, err := readFrame(r)
				if err != nil {
					return
				}
				tc.fn(c, tag)
			})
			m := muxDial(t, ep, 0)
			tag := m.issue(opPing, nil)
			if _, ok := m.await(tag); ok {
				t.Fatal("await succeeded across a torn frame")
			}
			m.release(tag)
		})
	}
}

// TestPingBypassesFullDataWindow pins the heartbeat liveness property: the
// membership service pings on its own lockstep connection, so a data window
// completely full of requests stalled on a busy chunk cannot head-of-line
// block failure detection. The test wedges a tiny window behind a held
// server stripe lock — the data connection's serving loop blocks on it —
// then round-trips a ping on a separate connection with a deadline.
func TestPingBypassesFullDataWindow(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)

	m := muxDial(t, srv.Addr(), 2)
	base := growOn(t, m)
	addr := transport.MakeAddr(0, base)
	writeOn(t, m, addr, make([]byte, 8))

	// Wedge chunk 0's stripe: both window slots fill with reads, and the
	// connection's serving loop blocks on the held lock at the first.
	srv.st.locks[0].Lock()
	tagA := m.issue(opRead, readPayload(addr, 8))
	tagB := m.issue(opRead, readPayload(addr, 8))

	// A membership-style lockstep ping on its own connection must answer
	// while the data window is wedged.
	pc, err := net.DialTimeout("tcp", srv.Addr(), dialTimeout)
	if err != nil {
		srv.st.locks[0].Unlock()
		t.Fatal(err)
	}
	defer pc.Close()
	pc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(pc, 0, opPing, nil); err != nil {
		srv.st.locks[0].Unlock()
		t.Fatalf("ping write: %v", err)
	}
	_, status, _, err := readFrame(bufio.NewReader(pc))
	if err != nil || status != statusOK {
		srv.st.locks[0].Unlock()
		t.Fatalf("ping while data window wedged: status %d, err %v", status, err)
	}

	srv.st.locks[0].Unlock()
	if _, ok := m.await(tagA); !ok {
		t.Fatal("wedged read A failed after unlock")
	}
	m.release(tagA)
	if _, ok := m.await(tagB); !ok {
		t.Fatal("wedged read B failed after unlock")
	}
	m.release(tagB)
}

// TestPreDialNoFirstOpHandshake pins the first-op latency fix: NewCluster
// pre-dials every server's mux at bring-up, so the first verb (and every
// later one) opens no new connection.
func TestPreDialNoFirstOpHandshake(t *testing.T) {
	srvs := make([]*Server, 2)
	endpoints := make([]string, 2)
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(srv.Close)
		srvs[i] = srv
		endpoints[i] = srv.Addr()
	}

	// Heartbeats disabled: their watcher conns would race the count.
	c, err := NewCluster(endpoints, 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	before := []int64{srvs[0].Accepted(), srvs[1].Accepted()}
	for i, n := range before {
		if n < 1 {
			t.Fatalf("server %d accepted %d conns at bring-up, want the pre-dialed mux", i, n)
		}
	}

	// Verbs against both servers: reads, writes, atomics.
	tr := c.NewTransport(0)
	for ms := uint16(0); ms < 2; ms++ {
		base := tr.GrowChunk(ms)
		a := transport.MakeAddr(ms, base)
		tr.Write(a, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		buf := make([]byte, 8)
		tr.Read(a, buf)
		tr.FAA(a, 1)
	}

	for i, srv := range srvs {
		if got := srv.Accepted(); got != before[i] {
			t.Fatalf("server %d accepted %d new conns after first verbs (%d -> %d); pre-dial regressed",
				i, got-before[i], before[i], got)
		}
	}
}
