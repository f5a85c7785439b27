package main

import (
	"fmt"
	"time"

	"sherman"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport/tcp"
)

// Deployment shape shared by both runs: two shermand memory servers on
// loopback, one compute server (this process) with two sessions.
const (
	memoryServers = 2
	sessions      = 2
)

// target is one running deployment under test. The untraced run drives the
// public sherman API; the traced run builds the same tree through core.New
// over a backend whose transports time every verb.
type target interface {
	session(i, depth int) (driverSession, error)
	counters() counters
	validate() error
	treeStats() sherman.TreeStats
	close()
}

// counters is a snapshot of the cluster-wide layer counters the per-layer
// metrics are differences of.
type counters struct {
	cacheHits, cacheMisses, cacheEvictions, cacheRejects int64
	lockAcq, lockHandovers, lockRetries, lockLocalWaits  int64
	allocNodes, allocChunks                              int64
	serverOps                                            []int64 // inbound ops per memory server
}

// setupTimes splits one set-up: launching the servers and connecting, then
// creating the tree and bulkloading it.
type setupTimes struct {
	launch, load time.Duration
}

func (s setupTimes) total() time.Duration { return s.launch + s.load }

// --- untraced: the public API ----------------------------------------------

type publicTarget struct {
	cl *sherman.Cluster
	tr *sherman.Tree
}

func launchPublic(s spec, kvs []sherman.KV) (*publicTarget, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cl, err := sherman.NewCluster(sherman.ClusterConfig{
		Transport:      sherman.TransportTCP,
		MemoryServers:  memoryServers,
		ComputeServers: 1,
	})
	if err != nil {
		return nil, st, fmt.Errorf("launching the cluster: %w", err)
	}
	st.launch = time.Since(t0)
	t1 := time.Now()
	tr, err := cl.CreateTree(sherman.TreeOptions{CacheBytes: s.CacheBytes})
	if err == nil {
		err = tr.Bulkload(kvs)
	}
	if err != nil {
		cl.Close()
		return nil, st, fmt.Errorf("creating and loading the tree: %w", err)
	}
	st.load = time.Since(t1)
	return &publicTarget{cl: cl, tr: tr}, st, nil
}

func (p *publicTarget) session(_, depth int) (driverSession, error) {
	s, err := p.tr.SessionAt(0, sherman.PipelineDepth(depth))
	if err != nil {
		return nil, err
	}
	return &publicSession{s: s, fut: make([]*sherman.Future, depth)}, nil
}

func (p *publicTarget) counters() counters {
	cs := p.tr.CacheStats(0)
	ls := p.tr.LockStats()
	as := p.cl.AllocStats()
	c := counters{
		cacheHits: cs.Hits, cacheMisses: cs.Misses, cacheEvictions: cs.Evictions, cacheRejects: cs.AdmissionRejects,
		lockAcq: ls.Acquisitions, lockHandovers: ls.Handovers, lockRetries: ls.GlobalRetries, lockLocalWaits: ls.LocalWaits,
		allocNodes: as.Nodes, allocChunks: as.ChunkRPCs,
	}
	for _, l := range p.cl.MemoryServerLoads() {
		c.serverOps = append(c.serverOps, l.InboundOps)
	}
	return c
}

func (p *publicTarget) validate() error              { return p.tr.Validate() }
func (p *publicTarget) treeStats() sherman.TreeStats { return p.tr.Stats() }
func (p *publicTarget) close()                       { p.cl.Close() }

type publicSession struct {
	s   *sherman.Session
	fut []*sherman.Future
}

func (p *publicSession) now() int64                     { return p.s.VirtualNow() }
func (p *publicSession) submit(slot int, op sherman.Op) { p.fut[slot] = p.s.Submit(op) }
func (p *publicSession) flush() error                   { return p.s.Flush() }
func (p *publicSession) stats() sherman.SessionStats    { return p.s.Stats() }

func (p *publicSession) wait(slot int) (sherman.Result, int64) {
	f := p.fut[slot]
	r := f.Wait()
	return r, f.CompleteAtV()
}

// --- traced: core over a timing backend ------------------------------------

type tracedTarget struct {
	ls *tcp.LocalServers
	tc *tcp.Cluster
	tr *core.Tree
}

// launchTraced deploys what launchPublic deploys, but builds the tree
// through core.New over tb's timing wrapper of the TCP cluster. The core
// configuration is the one sherman.DefaultTreeOptions selects.
func launchTraced(s spec, kvs []sherman.KV, tb *tracer) (*tracedTarget, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ls, err := tcp.LaunchLocal(memoryServers)
	if err != nil {
		return nil, st, fmt.Errorf("launching shermand: %w", err)
	}
	tc, err := tcp.NewCluster(ls.Endpoints, 1, tcp.Options{})
	if err != nil {
		ls.Stop()
		return nil, st, fmt.Errorf("connecting to shermand: %w", err)
	}
	st.launch = time.Since(t0)
	t1 := time.Now()
	cfg := core.ShermanConfig()
	cfg.Format = layout.DefaultFormat(layout.TwoLevel)
	cfg.CacheBytes = s.CacheBytes
	tr := core.New(&tracedBackend{Backend: tc, tr: tb}, cfg)
	tr.Bulkload(kvs)
	st.load = time.Since(t1)
	return &tracedTarget{ls: ls, tc: tc, tr: tr}, st, nil
}

func (t *tracedTarget) session(i, depth int) (driverSession, error) {
	h := t.tr.NewHandle(0, 1000+i)
	return &coreSession{h: h, a: h.NewAsync(depth), pend: make([]core.Pending, depth)}, nil
}

func (t *tracedTarget) counters() counters {
	c := t.tr.Cache(0)
	ls := t.tr.LockStats()
	out := counters{
		cacheHits: c.Hits(), cacheMisses: c.Misses(), cacheEvictions: c.Evictions(), cacheRejects: c.AdmissionRejects(),
		lockAcq: ls.Acquisitions.Load(), lockHandovers: ls.Handovers.Load(),
		lockRetries: ls.GlobalRetries.Load(), lockLocalWaits: ls.LocalWaits.Load(),
		allocNodes: t.tc.AllocStats.Nodes.Load(), allocChunks: t.tc.AllocStats.Chunks.Load(),
	}
	for _, l := range t.tc.Loads() {
		out.serverOps = append(out.serverOps, l.Ops)
	}
	return out
}

func (t *tracedTarget) validate() error { return t.tr.Validate() }

func (t *tracedTarget) treeStats() sherman.TreeStats {
	s := t.tr.Stats()
	return sherman.TreeStats{
		Height: s.Height, InternalNodes: s.InternalNodes, LeafNodes: s.LeafNodes, Entries: s.Entries,
		LeafFill: s.LeafFill, MinLeafFill: s.MinLeafFill, BytesUsed: s.BytesUsed,
	}
}

func (t *tracedTarget) close() {
	t.tc.Shutdown()
	t.ls.Stop()
}

// coreSession is sherman.Session's Submit/Wait/Stats path, written against
// core directly: a handle, its pipelined executor, and at depth > 1 the
// executor's worker handles.
type coreSession struct {
	h    *core.Handle
	a    *core.Async
	pend []core.Pending
}

func (c *coreSession) now() int64 { return c.h.C.Now() }

func (c *coreSession) submit(slot int, op sherman.Op) {
	cop := core.Op{Key: op.Key, Value: op.Value, Span: op.Span}
	switch op.Kind {
	case sherman.OpGet:
		cop.Kind = stats.OpLookup
	case sherman.OpPut:
		cop.Kind = stats.OpInsert
	case sherman.OpScan:
		cop.Kind = stats.OpRange
	default:
		panic(fmt.Sprintf("perfbench: op kind %d is not in any mix", op.Kind))
	}
	c.pend[slot] = c.a.SubmitOp(cop)
}

func (c *coreSession) wait(slot int) (sherman.Result, int64) {
	r, done := c.pend[slot].Wait()
	return sherman.Result{Value: r.Value, Found: r.Found, KVs: r.KVs}, done
}

func (c *coreSession) flush() error {
	c.a.Flush()
	return nil
}

// stats sums the counters Session.Stats sums: the session handle's and, at
// depth > 1, every worker handle's.
func (c *coreSession) stats() sherman.SessionStats {
	add := func(st *sherman.SessionStats, h *core.Handle) {
		m := h.Metrics()
		st.RoundTrips += m.RoundTrips
		st.WriteBytes += m.WriteBytes
		st.CASFailures += m.CASFailures
		st.DoorbellBatches += m.DoorbellBatches
		st.DoorbellOps += m.DoorbellOps
		st.SpeculativeReads += h.Rec.SpecReads
		st.SpeculativeFails += h.Rec.SpecFails
		st.CacheHits += h.Rec.CacheHits
		st.CacheMisses += h.Rec.CacheMisses
	}
	r := c.h.Rec
	st := sherman.SessionStats{
		Lookups: r.Ops[stats.OpLookup], Inserts: r.Ops[stats.OpInsert], Scans: r.Ops[stats.OpRange],
		PipelinedOps: r.PipelinedOps, LatencyHidingRatio: r.HidingRatio(),
	}
	add(&st, c.h)
	c.a.ForEachWorker(func(w *core.Handle) { add(&st, w) })
	return st
}
