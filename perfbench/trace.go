package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"sherman/internal/core"
	"sherman/internal/transport"
)

// Verb kinds the tracer times. vGrowChunk is the allocation RPC: it counts
// toward an op's verb time but has no metric of its own (alloc.chunk_rpcs
// counts it).
type verbKind uint8

const (
	vRead verbKind = iota
	vReadMulti
	vWrite
	vPostWrites
	vCAS
	vCAS16
	vFAA
	vGrowChunk
	numVerbKinds
)

var verbNames = [numVerbKinds]string{"read", "read_multi", "write", "post_writes", "cas", "cas16", "faa", "grow_chunk"}

// span is one timed verb on one lane, in transport-clock nanoseconds.
type span struct {
	start, end int64
	kind       verbKind
}

// lane is the span log of one transport. A transport belongs to one
// goroutine (a session handle or one executor worker), which runs one
// operation at a time, so a lane's spans of different operations never
// overlap.
type lane struct {
	spans []span
}

// tracer hands out timing transports and keeps their spans in memory until
// the benchmark writes them out. Recording is on only inside the traced
// window, which starts and ends with every session drained.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	lanes []*lane
}

func (tb *tracer) newLane() *lane {
	l := &lane{spans: make([]span, 0, 1<<14)}
	tb.mu.Lock()
	tb.lanes = append(tb.lanes, l)
	tb.mu.Unlock()
	return l
}

// snapshot returns the lanes. Call only while no transport is recording.
func (tb *tracer) snapshot() []*lane {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return append([]*lane(nil), tb.lanes...)
}

// tracedBackend is the TCP cluster with every client transport wrapped in a
// timing transport. Everything else is the cluster's own.
type tracedBackend struct {
	core.Backend
	tr *tracer
}

func (b *tracedBackend) NewTransport(cs int) transport.Transport {
	inner := b.Backend.NewTransport(cs)
	av, ok := inner.(transport.AsyncVerbs)
	if !ok {
		panic("perfbench: the TCP transport no longer implements transport.AsyncVerbs")
	}
	return &tracedTransport{Transport: inner, av: av, tr: b.tr, l: b.tr.newLane(), async: map[transport.Pending]asyncStart{}}
}

// tracedTransport forwards transport.Transport and transport.AsyncVerbs to
// the TCP transport, timing each verb. It must not implement
// transport.VirtualTimer: core picks the real-clock pipelined executor only
// for transports without one.
type tracedTransport struct {
	transport.Transport
	av    transport.AsyncVerbs
	tr    *tracer
	l     *lane
	async map[transport.Pending]asyncStart
}

type asyncStart struct {
	start int64
	kind  verbKind
}

var (
	_ transport.AsyncVerbs = (*tracedTransport)(nil)
	_ core.Backend         = (*tracedBackend)(nil)
)

// begin stamps a verb's start when recording.
func (t *tracedTransport) begin() (int64, bool) {
	if !t.tr.on.Load() {
		return 0, false
	}
	return t.Transport.Now(), true
}

func (t *tracedTransport) end(k verbKind, start int64, ok bool) {
	if ok {
		t.l.spans = append(t.l.spans, span{start: start, end: t.Transport.Now(), kind: k})
	}
}

func (t *tracedTransport) Read(a transport.Addr, buf []byte) {
	s, ok := t.begin()
	t.Transport.Read(a, buf)
	t.end(vRead, s, ok)
}

func (t *tracedTransport) ReadMulti(ops []transport.ReadOp) {
	s, ok := t.begin()
	t.Transport.ReadMulti(ops)
	t.end(vReadMulti, s, ok)
}

func (t *tracedTransport) Write(a transport.Addr, data []byte) {
	s, ok := t.begin()
	t.Transport.Write(a, data)
	t.end(vWrite, s, ok)
}

func (t *tracedTransport) PostWrites(ops ...transport.WriteOp) {
	s, ok := t.begin()
	t.Transport.PostWrites(ops...)
	t.end(vPostWrites, s, ok)
}

func (t *tracedTransport) CAS(a transport.Addr, old, new uint64) (uint64, bool) {
	s, ok := t.begin()
	v, swapped := t.Transport.CAS(a, old, new)
	t.end(vCAS, s, ok)
	return v, swapped
}

func (t *tracedTransport) CAS16(a transport.Addr, old, new uint16) (uint16, bool) {
	s, ok := t.begin()
	v, swapped := t.Transport.CAS16(a, old, new)
	t.end(vCAS16, s, ok)
	return v, swapped
}

func (t *tracedTransport) FAA(a transport.Addr, delta uint64) uint64 {
	s, ok := t.begin()
	v := t.Transport.FAA(a, delta)
	t.end(vFAA, s, ok)
	return v
}

func (t *tracedTransport) GrowChunk(ms uint16) uint64 {
	s, ok := t.begin()
	v := t.Transport.GrowChunk(ms)
	t.end(vGrowChunk, s, ok)
	return v
}

// An asynchronous verb's span runs from issue to the return of its Await.

func (t *tracedTransport) ReadAsync(a transport.Addr, buf []byte) transport.Pending {
	s, ok := t.begin()
	p := t.av.ReadAsync(a, buf)
	if ok {
		t.async[p] = asyncStart{start: s, kind: vRead}
	}
	return p
}

func (t *tracedTransport) PostWritesAsync(ops ...transport.WriteOp) transport.Pending {
	s, ok := t.begin()
	p := t.av.PostWritesAsync(ops...)
	if ok {
		t.async[p] = asyncStart{start: s, kind: vPostWrites}
	}
	return p
}

func (t *tracedTransport) Await(p transport.Pending) {
	t.av.Await(p)
	if st, ok := t.async[p]; ok {
		delete(t.async, p)
		t.end(st.kind, st.start, true)
	}
}

// verbTotals reduces the lanes' spans to per-kind counts and durations and
// the summed per-lane union of verb time.
type verbTotals struct {
	count     [numVerbKinds]int64
	durations [numVerbKinds][]int64
	unionNS   int64
}

func reduceSpans(lanes []*lane) verbTotals {
	var vt verbTotals
	for _, l := range lanes {
		s := l.spans
		for _, sp := range s {
			vt.count[sp.kind]++
			vt.durations[sp.kind] = append(vt.durations[sp.kind], sp.end-sp.start)
		}
		vt.unionNS += unionLength(s)
	}
	return vt
}

// unionLength is the total length covered by the spans' intervals.
func unionLength(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	lo, hi := s[0].start, s[0].end
	for _, sp := range s[1:] {
		if sp.start > hi {
			total += hi - lo
			lo, hi = sp.start, sp.end
		} else if sp.end > hi {
			hi = sp.end
		}
	}
	return total + hi - lo
}

// writeSpans writes the traced window's spans as TSV: one line per op span
// (lane "s<session>") and per verb span (lane "v<lane>"), times in
// transport-clock nanoseconds.
func writeSpans(path string, loops []*loop, lanes []*lane) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tlane\tstart_ns\tend_ns")
	classNames := [numClasses]string{"op.read", "op.put"}
	for i, l := range loops {
		for _, sp := range l.spans {
			fmt.Fprintf(w, "%s\ts%d\t%d\t%d\n", classNames[sp.class], i, sp.start, sp.end)
		}
	}
	for i, l := range lanes {
		for _, sp := range l.spans {
			fmt.Fprintf(w, "verb.%s\tv%d\t%d\t%d\n", verbNames[sp.kind], i, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
