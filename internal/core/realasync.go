package core

import (
	"sync"
	"sync/atomic"

	"sherman/internal/stats"
	"sherman/internal/transport"
)

// This file is the real-clock half of the pipelined executor. On the
// simulator, Async overlaps round trips by virtual-time accounting: ops run
// sequentially and lanes only bookkeep when each would have completed. On a
// real transport there is no virtual time to account with — overlap must be
// physical — so an Async whose handle has no VirtualTimer (and depth > 1)
// attaches a realExec: every submitted op runs on a persistent runner
// goroutine against that runner's own worker Handle, keeping up to depth
// operations genuinely in flight per memory server through the transport's
// multiplexed connections.
//
// The observable contract is the sim executor's, enforced conservatively
// with real waits: before submitting an op on key k the owner drains the
// outstanding write to k, before a write it drains outstanding ops on k and
// the last scan, and a scan drains everything. Draining a conflict is
// strictly stronger than ordering after it, and conflicts are rare by
// design (a session hammering one key has no latency to hide); independent
// operations overlap freely, which is the whole point.
//
// The hot path is deliberately lean — the executor's own cost is client CPU
// that a 1-core host cannot overlap with anything. Runners are persistent
// (no goroutine spawn per op, no handle pool handoff), tickets and their
// completion channels recycle through an owner-side free list, and conflict
// detection is a scan of the ≤ depth outstanding tickets instead of a map.
// Completion is a one-token send on a buffered channel, received exactly
// once (immediately before harvest) by whichever owner-side path retires
// the ticket, so the channel is always drained by recycle time.

// realSeed staggers worker-handle allocators across all sessions.
var realSeed atomic.Int64

// ticket is one submitted operation in flight: its completion signal and
// the results the owner harvests.
type ticket struct {
	op   Op
	done chan struct{} // buffered cap 1; runner sends one token on completion

	// Filled by the runner, read by the owner after the token.
	res            OpResult
	crash          any
	startNS, endNS int64
	rtrips         int64
	dataBytes      int64
	depthAtIssue   int
	harvested      bool // owner-only: folded into the session's recorder
}

// realExec drives an Async's submissions with genuine concurrency. All
// fields except tasks/workers are owned by the session goroutine; runners
// touch only their own ticket and handle.
type realExec struct {
	a     *Async
	depth int
	cs    int

	// tasks feeds submitted tickets to the runners. Capacity depth: the
	// window reap bounds in-flight tickets to depth, so a send never blocks.
	tasks chan *ticket
	nrun  int // runners started; grown lazily up to depth

	mu      sync.Mutex
	workers []*Handle // runner handles, for stats folding

	out    []*ticket // outstanding tickets in issue order
	freeTk []*ticket // owner-side ticket pool; refilled by wait()

	// busy accumulates the latency-hiding union on the wall clock (tickets
	// harvest in issue order, so intervals arrive mostly ordered and the
	// single merged window stays a good union estimate).
	busy busyUnion
}

func newRealExec(a *Async, depth int) *realExec {
	return &realExec{
		a:     a,
		depth: depth,
		cs:    int(a.h.C.CSID()),
		tasks: make(chan *ticket, depth),
	}
}

// getTicket recycles a pooled ticket or allocates one. The done channel is
// reusable: its single token was received before the ticket was recycled.
func (re *realExec) getTicket(op Op) *ticket {
	var tk *ticket
	if n := len(re.freeTk); n > 0 {
		tk = re.freeTk[n-1]
		re.freeTk = re.freeTk[:n-1]
		done := tk.done
		*tk = ticket{op: op, done: done}
	} else {
		tk = &ticket{op: op, done: make(chan struct{}, 1)}
	}
	return tk
}

// submit issues op to the runners and returns its ticket. When the window
// is full it first retires the oldest outstanding op — the backpressure
// that bounds the session to depth in-flight operations — and before that
// it drains whatever outstanding tickets conflict with op.
func (re *realExec) submit(op Op) *ticket {
	switch op.Kind {
	case stats.OpLookup:
		// A read must observe the last write to its key: drain it.
		re.consumeConflicts(op.Key, true)
	case stats.OpInsert, stats.OpDelete:
		if op.Key == 0 {
			panic("core: key 0 is reserved")
		}
		// A write orders after everything on its key and after the last
		// scan: drain both.
		re.consumeConflicts(op.Key, false)
	case stats.OpRange:
		// A scan orders after everything outstanding.
		for len(re.out) > 0 {
			re.consume(re.out[0])
		}
	}
	if len(re.out) >= re.depth {
		re.consume(re.out[0])
	}
	tk := re.getTicket(op)
	tk.depthAtIssue = len(re.out) + 1
	re.out = append(re.out, tk)
	if re.nrun < re.depth && re.nrun < len(re.out) {
		re.nrun++
		go re.runner()
	}
	re.tasks <- tk
	return tk
}

// consumeConflicts drains the outstanding tickets that conflict with an op
// on key: for a lookup (readOnly) the outstanding writes to key, for a
// write every outstanding op on key plus the last scan. The scan is over at
// most depth tickets; consume removes the ticket from out, so the loop
// restarts its index after each hit.
func (re *realExec) consumeConflicts(key uint64, readOnly bool) {
	for i := 0; i < len(re.out); {
		tk := re.out[i]
		k := tk.op.Kind
		hit := false
		switch k {
		case stats.OpInsert, stats.OpDelete:
			hit = tk.op.Key == key
		case stats.OpLookup:
			hit = !readOnly && tk.op.Key == key
		case stats.OpRange:
			hit = !readOnly
		}
		if hit {
			re.consume(tk) // removes out[i]; re-check the same index
		} else {
			i++
		}
	}
}

// consume retires one outstanding ticket: receive its completion token,
// harvest it, re-panic a compute-server crash in the owner goroutine.
func (re *realExec) consume(tk *ticket) {
	<-tk.done
	re.harvest(tk)
	if tk.crash != nil {
		panic(tk.crash)
	}
}

// wait blocks until tk completes, harvests it, and returns its result. A
// compute-server crash re-panics here, in the owner goroutine, where the
// session layer's recovery converts it to ErrSessionDead. wait is the one
// place a ticket returns to the pool: nothing else can still hold it — it
// is out of the ordering state, off the runners, and the caller is the
// future that owned it.
func (re *realExec) wait(tk *ticket) (OpResult, int64) {
	if !tk.harvested {
		re.consume(tk)
	} else if tk.crash != nil {
		panic(tk.crash)
	}
	res, end := tk.res, tk.endNS
	re.freeTk = append(re.freeTk, tk)
	return res, end
}

// flush drains every outstanding ticket. The first crash observed re-panics
// after the drain, so the pool is quiescent when the session goes dead.
func (re *realExec) flush() {
	var crash any
	for len(re.out) > 0 {
		tk := re.out[0]
		<-tk.done
		re.harvest(tk)
		if tk.crash != nil && crash == nil {
			crash = tk.crash
		}
	}
	if crash != nil {
		panic(crash)
	}
}

// harvest folds a completed ticket into the session's recorder and drops it
// from the outstanding window. Owner-only; called exactly once per ticket,
// immediately after its completion token is received. The ticket is NOT
// recycled here — a Future may still hold it (wait recycles).
func (re *realExec) harvest(tk *ticket) {
	tk.harvested = true
	for i, o := range re.out {
		if o == tk {
			re.out = append(re.out[:i], re.out[i+1:]...)
			break
		}
	}
	if tk.crash != nil {
		return // a crashed op records nothing; the session is about to die
	}
	rec := re.a.h.Rec
	recordOp(rec, tk.op, tk.res, tk.endNS-tk.startNS, tk.rtrips, tk.dataBytes)
	re.busy.record(rec, tk.depthAtIssue, tk.startNS, tk.endNS)
}

// runner is one persistent worker goroutine with its own transport handle.
// Runners are spawned lazily up to depth as the window fills, so a chain of
// dependent ops never pays for transports it cannot use. Deadlock-free by
// construction: every submitted ticket is conflict-free (the owner drained
// its conflicts first), runners never wait on other tickets, and in-flight
// tickets never exceed started runners.
func (re *realExec) runner() {
	h := re.a.h.t.NewHandle(re.cs, int(realSeed.Add(1)))
	re.mu.Lock()
	re.workers = append(re.workers, h)
	re.mu.Unlock()
	for tk := range re.tasks {
		re.runTicket(h, tk)
	}
}

// runTicket executes one ticket on h — the shared op body, with its
// accounting deferred to the owner's harvest — and publishes the completion
// token. A compute-server crash is captured into the ticket (the owner
// re-panics it); any other panic is a protocol bug and propagates.
func (re *realExec) runTicket(h *Handle, tk *ticket) {
	tk.startNS = h.C.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := transport.IsCrash(r); ok {
					tk.crash = r
					return
				}
				panic(r)
			}
		}()
		h.m.BeginOp()
		tk.res, tk.dataBytes = h.applyOp(tk.op)
		tk.rtrips = h.m.OpRoundTrips
	}()
	tk.endNS = h.C.Now()
	tk.done <- struct{}{}
}
