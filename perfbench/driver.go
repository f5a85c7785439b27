package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sherman"
	"sherman/internal/workload"
)

// driverSession is the slice of a client session the closed loop drives.
// Submitted operations occupy numbered slots (at most depth of them) until
// waited on, so neither implementation allocates per operation on the
// benchmark's side.
type driverSession interface {
	// now reads the session's clock, the clock completion times use.
	now() int64
	submit(slot int, op sherman.Op)
	// wait blocks for the operation in slot and returns its result and
	// completion time.
	wait(slot int) (sherman.Result, int64)
	flush() error
	stats() sherman.SessionStats
}

// Op classes the latency metrics are split by. "read" is the workload's
// read operation: a get on both workloads, a scan in a mix that scans.
const (
	classRead = iota
	classPut
	numClasses
)

// tag derives the 32 tag bits every stored value carries from its key, so
// any value read back can be checked against the key it came from. It is
// odd, so no tagged value is 0.
func tag(key uint64) uint64 {
	x := key ^ 0x5bd1e9955bd1e995
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return (x & 0xffffffff) | 1
}

// taggedValue is the value written for key by a put carrying sequence seq.
func taggedValue(key uint64, seq uint32) uint64 { return tag(key)<<32 | uint64(seq) }

// loadKVs is the bulkload image: keys 1..loaded, each with its tag.
func loadKVs(loaded uint64) []sherman.KV {
	kvs := make([]sherman.KV, loaded)
	for i := range kvs {
		k := uint64(i) + 1
		kvs[i] = sherman.KV{Key: k, Value: taggedValue(k, 0)}
	}
	return kvs
}

// opSpan is one operation's client-side span, from Submit to completion.
type opSpan struct {
	start, end int64
	class      int
}

// loop is one closed-loop client: it keeps up to depth operations in
// flight on its session and submits the next one only when a slot frees.
// Every result is checked against the key it was issued for.
type loop struct {
	sess   driverSession
	gen    *workload.Generator
	depth  int
	loaded uint64
	seq    uint32

	inflight []pendingOp // ring of submitted operations, oldest at head
	head, n  int

	// Filled while recording: per interval of the window (by submit time
	// since t0) the ops submitted and their latency samples per class, the
	// attempted and failed counts, and (traced runs) the op spans.
	record     bool
	t0, ivNS   int64
	ivs        []interval
	attempted  int64
	failed     int64
	keepSpans  bool
	spans      []opSpan
	violations []string
}

// interval is what one loop recorded in one interval of the window.
type interval struct {
	ops int64
	lat [numClasses][]int64
}

type pendingOp struct {
	op     sherman.Op
	submit int64
	slot   int
}

// maxViolations bounds the correctness messages one loop keeps.
const maxViolations = 5

func newLoop(sess driverSession, gen *workload.Generator, depth int, loaded uint64) *loop {
	l := &loop{sess: sess, gen: gen, depth: depth, loaded: loaded, inflight: make([]pendingOp, depth)}
	for i := range l.inflight {
		l.inflight[i].slot = i
	}
	return l
}

// next draws the workload's next operation as a public Op.
func (l *loop) next() sherman.Op {
	w := l.gen.Next()
	switch w.Kind {
	case workload.Lookup:
		return sherman.GetOp(w.Key)
	case workload.Insert:
		l.seq++
		return sherman.PutOp(w.Key, taggedValue(w.Key, l.seq))
	case workload.Range:
		return sherman.ScanOp(w.Key, w.Span)
	}
	panic(fmt.Sprintf("perfbench: workload kind %v is not in any mix", w.Kind))
}

// run drives the loop until stop is raised or the session clock reaches
// deadline (0 = no deadline), then drains every outstanding operation.
func (l *loop) run(stop *atomic.Bool, deadline int64) error {
	for !stop.Load() {
		now := l.sess.now()
		if deadline != 0 && now >= deadline {
			break
		}
		if l.n == l.depth {
			l.complete()
		}
		p := &l.inflight[(l.head+l.n)%l.depth]
		p.op = l.next()
		p.submit = l.sess.now()
		l.sess.submit(p.slot, p.op)
		l.n++
		if l.record {
			l.attempted++
			l.intervalAt(p.submit).ops++
		}
	}
	for l.n > 0 {
		l.complete()
	}
	return l.sess.flush()
}

// complete waits for the oldest outstanding operation, checks its result
// and records its latency.
func (l *loop) complete() {
	p := &l.inflight[l.head]
	l.head = (l.head + 1) % l.depth
	l.n--
	res, done := l.sess.wait(p.slot)
	class := classRead
	if p.op.Kind == sherman.OpPut {
		class = classPut
	}
	lat := done - p.submit
	if res.Err != nil {
		l.failed++
		lat = math.MaxInt64 // a failed op misses every latency limit
	} else if msg := l.check(p.op, res); msg != "" && len(l.violations) < maxViolations {
		l.violations = append(l.violations, msg)
	}
	if l.record {
		iv := l.intervalAt(p.submit)
		iv.lat[class] = append(iv.lat[class], lat)
		if l.keepSpans {
			l.spans = append(l.spans, opSpan{start: p.submit, end: done, class: class})
		}
	}
}

// intervalAt returns the interval an op submitted at t belongs to. The loop
// stops submitting at the window's end, so only the clock read between the
// deadline check and the submit can land past it; that op counts in the
// last interval.
func (l *loop) intervalAt(t int64) *interval {
	i := min(max((t-l.t0)/l.ivNS, 0), int64(len(l.ivs)-1))
	return &l.ivs[i]
}

// check verifies one successful result against its operation: found values
// carry their key's tag, loaded keys (1..loaded; no mix deletes) are never
// missing, and scans are strictly ascending from their start key with no
// loaded key skipped. It returns "" when the result is correct.
func (l *loop) check(op sherman.Op, res sherman.Result) string {
	switch op.Kind {
	case sherman.OpGet:
		if res.Found && res.Value>>32 != tag(op.Key) {
			return fmt.Sprintf("get(%d) returned %#x, not a value of this key", op.Key, res.Value)
		}
		if !res.Found && op.Key <= l.loaded {
			return fmt.Sprintf("get(%d): loaded key not found", op.Key)
		}
	case sherman.OpScan:
		next := op.Key // smallest key the scan has not yet accounted for
		for _, kv := range res.KVs {
			if kv.Key < next {
				return fmt.Sprintf("scan(%d,%d): key %d out of order or below the start", op.Key, op.Span, kv.Key)
			}
			if kv.Value>>32 != tag(kv.Key) {
				return fmt.Sprintf("scan(%d,%d): key %d carries %#x, not a value of this key", op.Key, op.Span, kv.Key, kv.Value)
			}
			if next <= l.loaded && next < kv.Key {
				return fmt.Sprintf("scan(%d,%d): loaded key %d missing", op.Key, op.Span, next)
			}
			next = kv.Key + 1
		}
		if len(res.KVs) > op.Span {
			return fmt.Sprintf("scan(%d,%d): %d results", op.Key, op.Span, len(res.KVs))
		}
		if len(res.KVs) < op.Span && next <= l.loaded {
			return fmt.Sprintf("scan(%d,%d): ended after %d results with loaded key %d unread", op.Key, op.Span, len(res.KVs), next)
		}
	}
	return ""
}

// runLoops runs every loop on its own goroutine until stop or deadline and
// waits for all of them.
func runLoops(loops []*loop, stop *atomic.Bool, deadline int64) error {
	var wg sync.WaitGroup
	errs := make([]error, len(loops))
	for i, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.run(stop, deadline)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
