package tcp

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWindow is the per-server outstanding-request window: how many
// tagged frames one muxConn keeps in flight before issue blocks. It bounds
// server-side buffering and is the backpressure of the pipelined executor;
// 64 comfortably exceeds any single session's depth times its verb fan-out.
const defaultWindow = 64

// muxSlot is one tagged completion slot. Its tag is its index in the mux's
// slot table; a slot cycles free → inflight → delivered → free, and its
// resp buffer is reused across cycles so the steady path allocates nothing.
type muxSlot struct {
	// ready carries the single completion signal; err/reject/resp are valid
	// for the awaiter once it receives (channel delivery orders the writes).
	ready chan struct{}

	// inflight guards exactly-once delivery: whoever CASes true→false owns
	// the completion (the reader with a response, or the failure sweep).
	inflight atomic.Bool

	err    bool   // connection died; apply dead-memory semantics
	reject bool   // server answered statusErr; resp holds the message
	resp   []byte // response payload, valid until release
}

// deliver completes the slot exactly once.
func (s *muxSlot) deliver(err bool) {
	if s.inflight.CompareAndSwap(true, false) {
		s.err = err
		s.ready <- struct{}{}
	}
}

// muxConn is the multiplexed connection to one memory server, shared by
// every client thread of the cluster. Senders acquire a tagged slot (the
// bounded window), append their frame to a shared write buffer, and block
// on the slot; a writer goroutine coalesces whatever accumulated into
// single flushes, and a reader goroutine demuxes responses by tag back to
// the waiting slots. The tag alone matches a response to its request;
// nothing here depends on the order in which responses arrive.
//
// Failure is terminal (a dead server stays dead, as in v1): fail closes the
// socket, the reader sweeps every in-flight slot with err, and later issues
// self-complete with err. Verbs observing err call Cluster.markDead, which
// runs failover promotion before the death is published — the mux itself
// never touches the cluster, keeping the markDead→fail call acyclic.
type muxConn struct {
	ms int
	c  net.Conn

	slots []muxSlot
	free  chan uint32 // free slot indices; capacity = window

	wmu  sync.Mutex
	wbuf []byte        // frames queued for the writer, coalesced per flush
	wake chan struct{} // capacity 1; nudges the writer, never closed

	closed    atomic.Bool
	dead      chan struct{} // closed by fail; stops the writer
	closeOnce sync.Once
}

// dialMux connects to endpoint and starts the writer and reader goroutines.
func dialMux(ms int, endpoint string, window int) (*muxConn, error) {
	if window <= 0 {
		window = defaultWindow
	}
	c, err := net.DialTimeout("tcp", endpoint, dialTimeout)
	if err != nil {
		return nil, err
	}
	m := &muxConn{
		ms:    ms,
		c:     c,
		slots: make([]muxSlot, window),
		free:  make(chan uint32, window),
		wake:  make(chan struct{}, 1),
		dead:  make(chan struct{}),
	}
	for i := range m.slots {
		m.slots[i].ready = make(chan struct{}, 1)
		m.free <- uint32(i)
	}
	go m.writeLoop()
	go m.readLoop()
	return m, nil
}

// fail makes the mux terminally dead: no new frames go out, the socket
// closes (kicking the reader out of any blocking read — a SIGSTOPped server
// holds its sockets open without answering), and the writer stops. The
// reader performs the in-flight sweep itself after its loop exits, so slot
// buffers are never written concurrently with delivery.
func (m *muxConn) fail() {
	m.closeOnce.Do(func() {
		m.closed.Store(true)
		m.c.Close()
		close(m.dead)
	})
}

// issue acquires a slot from the window (blocking while the window is
// full — the backpressure), queues one frame for the writer and returns the
// slot's tag. The payload is copied at enqueue, so the caller's scratch is
// reusable immediately. On a dead mux the slot self-completes with err.
func (m *muxConn) issue(op byte, payload []byte) uint32 {
	tag := <-m.free
	s := &m.slots[tag]
	s.err, s.reject = false, false
	s.inflight.Store(true)
	if m.closed.Load() {
		// The request never goes out. Complete it here: the reader's sweep
		// may already be done, but if it is running it CAS-races us safely.
		s.deliver(true)
		return tag
	}
	m.wmu.Lock()
	m.wbuf = appendFrame(m.wbuf, tag, op, payload)
	m.wmu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return tag
}

// await blocks until tag's response arrives. ok=false means the connection
// died; the caller applies dead-memory semantics and marks the server dead.
// The returned payload aliases the slot's buffer — parse or copy it before
// release. A statusErr response is a protocol bug (out-of-range access, bad
// opcode) and panics in the awaiting goroutine, matching the simulator's
// treatment of verb misuse.
func (m *muxConn) await(tag uint32) ([]byte, bool) {
	s := &m.slots[tag]
	<-s.ready
	if s.err {
		return nil, false
	}
	if s.reject {
		panic("tcp: server rejected request: " + string(s.resp))
	}
	return s.resp, true
}

// awaitLen is await for a verb whose request fixes its response length: a
// response of any other length means the stream is corrupt, so it reports
// ok=false and the caller takes the dead-server path, exactly as for a
// dropped connection.
func (m *muxConn) awaitLen(tag uint32, n int) ([]byte, bool) {
	resp, ok := m.await(tag)
	if !ok || len(resp) != n {
		return nil, false
	}
	return resp, true
}

// release returns tag's slot to the window. The slot's response buffer is
// invalid afterwards.
func (m *muxConn) release(tag uint32) { m.free <- tag }

// roundTrip is the synchronous convenience: issue, await, hand the response
// to parse (which must copy anything it keeps), release.
func (m *muxConn) roundTrip(op byte, payload []byte, parse func(resp []byte)) bool {
	tag := m.issue(op, payload)
	resp, ok := m.await(tag)
	if ok && parse != nil {
		parse(resp)
	}
	m.release(tag)
	return ok
}

// writeLoop flushes queued frames. Every pass swaps the shared buffer for a
// private one under the mutex — O(1) — then writes the whole batch with a
// single Write: frames issued by concurrent senders while a flush is on the
// wire coalesce into the next one (the writev-style batching that makes N
// in-flight verbs cost far fewer syscalls than N).
func (m *muxConn) writeLoop() {
	var local []byte
	for {
		select {
		case <-m.dead:
			return
		case <-m.wake:
		}
		// Yield before swapping — and keep yielding while the buffer is
		// still growing: senders mid-issue get to append their frames, so a
		// burst coalesces into one Write instead of trickling out a frame
		// per syscall (which otherwise dominates pipelined throughput; a
		// loopback write runs the whole TCP stack inline). A lone sender
		// pays one no-op yield; a pipelined wave gathers until quiescent.
		runtime.Gosched()
		m.wmu.Lock()
		n := len(m.wbuf)
		m.wmu.Unlock()
		// A completion batch wakes several senders whose next frames scatter
		// across all muxes, so this mux may see growth only every few yields;
		// tolerate a couple of quiet rounds before flushing. Idle yields are
		// near-free (there is real work on the runnable queue whenever the
		// burst is still unwinding).
		for i, stale := 0, 0; n > 0 && i < 24 && stale < 3; i++ {
			runtime.Gosched()
			m.wmu.Lock()
			grown := len(m.wbuf)
			m.wmu.Unlock()
			if grown == n {
				stale++
			} else {
				stale = 0
				n = grown
			}
		}
		m.wmu.Lock()
		local, m.wbuf = m.wbuf, local[:0]
		m.wmu.Unlock()
		if len(local) == 0 {
			continue
		}
		if _, err := m.c.Write(local); err != nil {
			m.c.Close() // the reader errors out and runs the failure sweep
			return
		}
	}
}

// readLoop demuxes response frames to their slots until the connection
// dies, then fails the mux and sweeps every in-flight slot. A response
// whose tag is out of range or not in flight means the stream is
// desynchronized; the only safe move is to kill the connection.
func (m *muxConn) readLoop() {
	defer func() {
		m.fail()
		for i := range m.slots {
			m.slots[i].deliver(true)
		}
	}()
	r := bufio.NewReader(m.c)
	// Header scratch lives outside the loop: through the io.Reader
	// interface a loop-local would escape and cost one heap allocation
	// per response frame.
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n < 5 || n > maxFrame {
			return
		}
		tag := binary.LittleEndian.Uint32(hdr[4:8])
		status := hdr[8]
		if tag >= uint32(len(m.slots)) {
			return
		}
		s := &m.slots[tag]
		if !s.inflight.Load() {
			return
		}
		// The payload lands directly in the slot's reusable buffer: the
		// awaiter is parked on ready until deliver, so nobody reads it while
		// we fill it, and the steady path allocates nothing once warm.
		plen := int(n) - 5
		if cap(s.resp) < plen {
			s.resp = make([]byte, plen)
		}
		s.resp = s.resp[:plen]
		if plen > 0 {
			if _, err := io.ReadFull(r, s.resp); err != nil {
				return
			}
		}
		s.reject = status != statusOK
		s.deliver(false)
	}
}
