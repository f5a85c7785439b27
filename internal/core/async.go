package core

import (
	"sherman/internal/sim"
	"sherman/internal/stats"
)

// Async is one session's pipelined executor: it interleaves up to depth
// logical coroutines ("lanes") over one Handle so that the round trips of
// independent operations overlap on the client's virtual timeline instead
// of serializing, the way Sherman's real clients run multiple coroutines
// per thread to hide RDMA latency.
//
// The handle's clock plays the role of the coroutine scheduler ("driver"):
// between operations it advances only by the per-op issue cost, plus — when
// all depth lanes are busy — to the earliest lane's completion, exactly like
// a scheduler that regains control at the next completion event. Each
// operation executes on the earliest-free lane's timeline (rdma.Client.
// OnTimeline), so its verbs' latencies overlap the other lanes' while the
// issue-side NIC costs still serialize on the shared sim.Resources.
//
// Real execution stays strictly sequential in submission order — lanes are
// virtual-time bookkeeping, not goroutines — so results are sequential by
// construction and no new lock-interleaving states exist. To keep the
// *timing* honest too, the executor orders dependent operations the way a
// real pipelined client must: an operation on key k starts no earlier than
// the completion of an outstanding write to k (and a write waits for
// outstanding reads of k, which would otherwise observe it early), and a
// scan orders after every outstanding write and bars later writes until it
// completes. Independent operations overlap freely.
//
// Async is owned by one goroutine, like the Handle it wraps.
type Async struct {
	h       *Handle
	lanes   *sim.Lanes
	issueNS int64

	// deps orders same-key operations; entries become inert once the driver
	// clock passes them and are swept lazily.
	deps map[uint64]keyDep
	// lastWriteDone is the latest completion horizon of any write issued so
	// far; scans start after it.
	lastWriteDone int64
	// barrier is the completion horizon of the latest scan: later writes
	// and scans start after it (later reads may overlap — a scan writes
	// nothing they could observe).
	barrier int64
	// busy accumulates the union of execution intervals, the latency-hiding
	// denominator.
	busy busyUnion

	// runOp/runIssueV/runRes frame the operation runFn executes. runFn is
	// bound once at construction so Submit passes no per-op closure through
	// the VirtualTimer interface — an escaping closure would cost an
	// allocation per pipelined operation (see the alloc gate).
	runOp     Op
	runIssueV int64
	runRes    OpResult
	runFn     func()

	// real drives physical concurrency when the transport has no virtual
	// timer (see realasync.go); nil on the simulator and at depth 1.
	real *realExec
}

// keyDep is the outstanding-op ordering state of one key.
type keyDep struct {
	write int64 // completion horizon of the last write to the key
	any   int64 // completion horizon of the last op of any kind on the key
}

// NewAsync wraps h in a pipelined executor bounded to depth outstanding
// operations (clamped to >= 1). Depth 1 is the synchronous client: ops run
// back-to-back on the handle's own clock with no issue overhead and no
// pipeline accounting, so synchronous callers are unchanged.
func (h *Handle) NewAsync(depth int) *Async {
	a := &Async{h: h, lanes: sim.NewLanes(depth), deps: make(map[uint64]keyDep)}
	if a.lanes.N() > 1 {
		a.issueNS = h.tm.PipelineIssueNS
	}
	// The recorded latency is issue-to-completion, the latency a pipelined
	// client observes (at depth 1 it equals the execution latency).
	a.runFn = func() { a.runRes = h.execOp(a.runOp, a.runIssueV) }
	if depth > 1 && h.vt == nil {
		a.real = newRealExec(a, depth)
	}
	return a
}

// Pending is one submitted operation. On the simulator the result is already
// materialized (Submit runs the op inline on the virtual timeline) and Wait
// merely advances the driver clock; on a real transport at depth > 1 the op
// runs on a worker goroutine and Wait genuinely blocks for it.
type Pending struct {
	a    *Async
	tk   *ticket
	res  OpResult
	done int64
}

// Deferred reports whether the result is still in flight on a worker
// goroutine (real transport, depth > 1). When false, Result is already
// materialized.
func (p Pending) Deferred() bool { return p.tk != nil }

// Result returns the materialized result of a non-deferred Pending without
// touching the driver clock.
func (p Pending) Result() (OpResult, int64) { return p.res, p.done }

// Wait blocks until the operation completes and returns its result and
// completion time (virtual on the simulator, wall-clock nanos on a real
// transport). Owner-goroutine only, like every Async method.
func (p Pending) Wait() (OpResult, int64) {
	if p.tk != nil {
		return p.a.real.wait(p.tk)
	}
	p.a.WaitUntil(p.done)
	return p.res, p.done
}

// SubmitOp submits op through whichever executor is active and returns its
// Pending. This is the entry point the session layer uses; Submit remains
// the simulator-only path with materialized results.
func (a *Async) SubmitOp(op Op) Pending {
	if a.real != nil {
		return Pending{a: a, tk: a.real.submit(op)}
	}
	res, done := a.Submit(op)
	return Pending{a: a, res: res, done: done}
}

// ForEachWorker visits the worker handles of the real executor (no-op on
// the simulator). Call after Flush: workers must be quiescent, since their
// per-handle counters are read without synchronization.
func (a *Async) ForEachWorker(fn func(*Handle)) {
	if a.real == nil {
		return
	}
	a.real.mu.Lock()
	ws := append([]*Handle(nil), a.real.workers...)
	a.real.mu.Unlock()
	for _, h := range ws {
		fn(h)
	}
}

// Depth returns the pipeline depth (the bound on outstanding operations).
func (a *Async) Depth() int { return a.lanes.N() }

// Submit executes op with its round trips overlapping the other outstanding
// operations', returning its result and virtual completion time. The
// driver clock (h.C.Now() between calls) does not wait for the completion —
// use Flush or advance to the returned time (Future.Wait at the session
// layer) to observe it.
func (a *Async) Submit(op Op) (OpResult, int64) {
	h := a.h
	// Claim the earliest-free lane, waiting for its completion when all
	// depth lanes are busy.
	lane, laneDone := a.lanes.Min()
	h.C.AdvanceTo(laneDone)
	depthAtIssue := a.lanes.Busy(h.C.Now()) + 1
	h.C.Step(a.issueNS)
	issueV := h.C.Now()

	start := issueV
	switch op.Kind {
	case stats.OpLookup:
		if d, ok := a.deps[op.Key]; ok && d.write > start {
			start = d.write
		}
	case stats.OpInsert, stats.OpDelete:
		if op.Key == 0 {
			panic("core: key 0 is reserved")
		}
		if d, ok := a.deps[op.Key]; ok && d.any > start {
			start = d.any
		}
		if a.barrier > start {
			start = a.barrier
		}
	case stats.OpRange:
		if a.lastWriteDone > start {
			start = a.lastWriteDone
		}
		if a.barrier > start {
			start = a.barrier
		}
	}

	a.runOp, a.runIssueV = op, issueV
	done := h.onTimeline(start, a.runFn)
	res := a.runRes
	a.runRes = OpResult{} // don't pin a scan's KVs past its submission
	a.lanes.Set(lane, done)
	a.noteCompletion(op, done)
	a.recordPipeline(depthAtIssue, start, done)
	return res, done
}

// noteCompletion updates the ordering state with op's completion horizon.
func (a *Async) noteCompletion(op Op, done int64) {
	switch op.Kind {
	case stats.OpLookup:
		d := a.deps[op.Key]
		if done > d.any {
			d.any = done
		}
		a.deps[op.Key] = d
	case stats.OpInsert, stats.OpDelete:
		d := a.deps[op.Key]
		if done > d.write {
			d.write = done
		}
		if done > d.any {
			d.any = done
		}
		a.deps[op.Key] = d
		if done > a.lastWriteDone {
			a.lastWriteDone = done
		}
	case stats.OpRange:
		if done > a.barrier {
			a.barrier = done
		}
	}
	a.sweepDeps()
}

// sweepDeps lazily drops ordering entries the driver clock has passed —
// they can no longer delay anything, since every start is at least the
// driver clock.
func (a *Async) sweepDeps() {
	if len(a.deps) <= 8*a.lanes.N()+16 {
		return
	}
	now := a.h.C.Now()
	for k, d := range a.deps {
		if d.any <= now {
			delete(a.deps, k)
		}
	}
}

// recordPipeline accumulates the depth sample and latency-hiding terms for
// one executed unit. Depth-1 executors skip it so synchronous sessions
// report clean (empty) pipeline metrics.
func (a *Async) recordPipeline(depth int, start, done int64) {
	if a.lanes.N() > 1 {
		a.busy.record(a.h.Rec, depth, start, done)
	}
}

// busyUnion is the union of a pipeline's execution intervals, kept as one
// merged interval [lo, hi]: issue order keeps intervals overlapping or
// adjacent, so extending either end counts exactly the uncovered part of
// each new interval. Tracking both ends keeps the union exact when a
// dependency-stalled op raises the high mark past a later op's earlier
// start. Both executors use it — the simulator's on virtual time, the real
// one on the wall clock.
type busyUnion struct{ lo, hi int64 }

// record adds [start, done] to the union and records the op's depth sample
// and latency-hiding terms into rec.
func (u *busyUnion) record(rec *stats.Recorder, depth int, start, done int64) {
	var busy int64
	switch {
	case start > u.hi || u.hi == 0:
		busy = done - start
		u.lo, u.hi = start, done
	default:
		if start < u.lo {
			busy += u.lo - start
			u.lo = start
		}
		if done > u.hi {
			busy += done - u.hi
			u.hi = done
		}
	}
	rec.RecordPipelineOp(depth, done-start, busy)
}

// Flush drains the pipeline: the driver clock advances to the last
// outstanding completion, after which every submitted result is in the
// session's past.
func (a *Async) Flush() {
	if a.real != nil {
		a.real.flush()
	}
	a.h.C.AdvanceTo(a.lanes.Max())
	clear(a.deps)
}

// WaitUntil advances the driver clock to the given completion horizon —
// the timing half of waiting on one future without draining the rest.
func (a *Async) WaitUntil(done int64) { a.h.C.AdvanceTo(done) }

// Exec applies a mixed batch through the planner (see batch.go) with each
// planned unit — a leaf group or a scan — running on a lane timeline, so
// the batch combines per-leaf amortization with cross-group latency
// hiding. Exec orders after everything already outstanding and returns
// fully drained, so its results are plain values, not futures.
func (a *Async) Exec(ops []Op) []OpResult {
	if len(ops) == 0 {
		return nil
	}
	results := make([]OpResult, len(ops))
	a.ExecInto(ops, results)
	return results
}

// ExecInto is Exec writing its results into the caller's slice (len must
// equal len(ops)) — the allocation-free variant for callers that recycle a
// results buffer across batches.
func (a *Async) ExecInto(ops []Op, results []OpResult) {
	if len(ops) == 0 {
		return
	}
	if len(results) != len(ops) {
		panic("core: ExecInto results length mismatch")
	}
	clear(results) // a recycled buffer must not leak stale slots (not-found lookups never write theirs)
	a.Flush()
	h := a.h
	h.m.BeginOp()
	t0 := h.C.Now()
	scanNS := h.execOps(ops, a, results)
	a.Flush()
	if counts, points := opCounts(ops); points > 0 {
		// Scans record their own latency in execScan; exclude their
		// execution time from the drained window amortized over the
		// point operations.
		lat := h.C.Now() - t0 - scanNS
		if lat < 0 {
			lat = 0
		}
		h.Rec.RecordMixedBatch(counts, lat, h.m.OpRoundTrips)
	}
}

// unit runs one planned group on the earliest-free lane and returns its
// completion horizon. Groups of one Exec have disjoint key ranges except
// where a read group stops at a covered write — the planner floors that
// write unit at the read's completion — so otherwise only scans need
// cross-unit ordering.
func (a *Async) unit(write bool, floor int64, fn func()) int64 {
	h := a.h
	lane, laneDone := a.lanes.Min()
	h.C.AdvanceTo(laneDone)
	depthAtIssue := a.lanes.Busy(h.C.Now()) + 1
	h.C.Step(a.issueNS)
	start := h.C.Now()
	if floor > start {
		start = floor
	}
	if write && a.barrier > start {
		start = a.barrier
	}
	done := h.onTimeline(start, fn)
	a.lanes.Set(lane, done)
	if write && done > a.lastWriteDone {
		a.lastWriteDone = done
	}
	a.recordPipeline(depthAtIssue, start, done)
	return done
}

func (a *Async) readUnit(fn func()) int64               { return a.unit(false, 0, fn) }
func (a *Async) writeUnit(floor int64, fn func()) int64 { return a.unit(true, floor, fn) }

// scanUnit runs a scan ordered after every outstanding unit, and bars later
// writes until it completes — a scan must observe exactly the writes
// submitted before it.
func (a *Async) scanUnit(fn func()) {
	h := a.h
	lane, _ := a.lanes.Min()
	h.C.AdvanceTo(a.lanes.Max())
	depthAtIssue := 1
	h.C.Step(a.issueNS)
	start := h.C.Now()
	if a.barrier > start {
		start = a.barrier
	}
	done := h.onTimeline(start, fn)
	a.lanes.Set(lane, done)
	a.barrier = done
	a.recordPipeline(depthAtIssue, start, done)
}
