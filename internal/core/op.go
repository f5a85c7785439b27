package core

import (
	"sherman/internal/layout"
	"sherman/internal/stats"
)

// Op is one client operation in the unified model: every data-path request —
// point lookup, insert/update, delete, range scan — is the same value type,
// so mixed streams flow through one planner (Exec) and one async executor
// (Async) instead of per-kind entry points.
type Op struct {
	Kind stats.OpKind
	Key  uint64
	// Value is the OpInsert payload.
	Value uint64
	// Span bounds an OpRange result.
	Span int
}

// OpResult is the outcome of one Op. Lookups fill Value/Found; deletes fill
// Found; range scans fill KVs.
type OpResult struct {
	Value uint64
	Found bool
	KVs   []layout.KV
}

// applyOp is the one operation body every entry point shares — the handle's
// blocking methods and both pipelined executors. It runs op on h's current
// timeline and returns the result plus the payload bytes a write moved. A
// write whose commit a failover swallowed (see mirror) reruns through the
// promoted chunk before returning, so no entry point acknowledges a write
// that is not durable. Callers open the op (h.m.BeginOp) and record it
// (recordOp).
func (h *Handle) applyOp(op Op) (res OpResult, dataBytes int64) {
	switch op.Kind {
	case stats.OpLookup:
		res.Value, res.Found = h.lookupInner(op.Key)
	case stats.OpInsert:
		dataBytes = h.insertInner(op.Key, op.Value)
		for h.takeRedo() {
			// The insert is an idempotent upsert.
			dataBytes = h.insertInner(op.Key, op.Value)
		}
	case stats.OpDelete:
		res.Found, dataBytes = h.deleteInner(op.Key)
		for h.takeRedo() {
			// Nothing durable changed, so the retry sees the key again
			// (keeping Found truthful) and re-deletes.
			found, db := h.deleteInner(op.Key)
			res.Found, dataBytes = res.Found || found, db
		}
	case stats.OpRange:
		if op.Span > 0 {
			res.KVs = h.rangeInner(op.Key, op.Span)
		}
	}
	return res, dataBytes
}

// recordOp folds one applied op into rec: its latency and, for a write, the
// round trips it took and the bytes it moved (a delete of an absent key
// moved none). An empty scan (Span <= 0) ran nothing and records nothing.
func recordOp(rec *stats.Recorder, op Op, res OpResult, latNS, roundTrips, dataBytes int64) {
	if op.Kind == stats.OpRange && op.Span <= 0 {
		return
	}
	rec.RecordOp(op.Kind, latNS)
	if op.Kind == stats.OpInsert || op.Kind == stats.OpDelete {
		rec.WriteRoundTrips.Record(int(roundTrips))
		if op.Kind == stats.OpInsert || res.Found {
			rec.WriteSizes.Record(dataBytes)
		}
	}
}

// execOp opens, applies and records op on h's current timeline, counting its
// latency from issueV.
func (h *Handle) execOp(op Op, issueV int64) OpResult {
	h.m.BeginOp()
	res, dataBytes := h.applyOp(op)
	recordOp(h.Rec, op, res, h.C.Now()-issueV, h.m.OpRoundTrips, dataBytes)
	return res
}
