package sherman

import (
	"errors"
	"sync"
	"testing"

	"sherman/internal/testutil"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testTree creates a tree and registers Validate-on-exit, the public-API
// mirror of testutil.NewTree: a suite cannot pass while quietly corrupting
// the structure.
func testTree(t *testing.T, c *Cluster, opts TreeOptions) *Tree {
	t.Helper()
	tree, err := c.CreateTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("Validate on exit: %v", err)
		}
	})
	return tree
}

// The must* helpers run one blocking session call and fail the test on any
// error, so a rejected or crashed call never passes silently in a test whose
// subject is not the error path. They call t.Fatal: use them only on the
// test's own goroutine; worker goroutines check errors inline.
func mustSession(t testing.TB, tr *Tree, cs int, opts ...SessionOption) *Session {
	t.Helper()
	s, err := tr.SessionAt(cs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPut(t testing.TB, s *Session, key, value uint64) {
	t.Helper()
	if err := s.Put(key, value); err != nil {
		t.Fatalf("Put(%d): %v", key, err)
	}
}

func mustGet(t testing.TB, s *Session, key uint64) (uint64, bool) {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%d): %v", key, err)
	}
	return v, ok
}

func mustDelete(t testing.TB, s *Session, key uint64) bool {
	t.Helper()
	found, err := s.Delete(key)
	if err != nil {
		t.Fatalf("Delete(%d): %v", key, err)
	}
	return found
}

func mustScan(t testing.TB, s *Session, from uint64, span int) []KV {
	t.Helper()
	kvs, err := s.Scan(from, span)
	if err != nil {
		t.Fatalf("Scan(%d, %d): %v", from, span, err)
	}
	return kvs
}

// gridOptions maps the shared harness matrix (testutil.Matrix) onto public
// TreeOptions: the TwoLevel cells run the full Sherman lock stack, the
// Checksum cells the FG-style baseline, so both lock-word formats ride
// along exactly as in the core-level grids.
func gridOptions() []TreeOptions {
	var out []TreeOptions
	for _, ax := range testutil.Matrix() {
		adv := &AdvancedOptions{TwoLevelVersions: ax.TwoLevel, CombineCommands: ax.Combine}
		if ax.TwoLevel {
			adv.OnChipLocks = true
			adv.LocalLockTables = true
			adv.WaitQueues = true
			adv.Handover = true
		}
		out = append(out, TreeOptions{NodeSize: testutil.SmallNodeSize, LocksPerMS: 1024, Advanced: adv})
	}
	return out
}

func TestNewClusterValidation(t *testing.T) {
	cases := []ClusterConfig{
		{},
		{MemoryServers: 1},
		{ComputeServers: 1},
		{MemoryServers: -1, ComputeServers: 1},
		{MemoryServers: 1 << 16, ComputeServers: 1},
	}
	for _, cfg := range cases {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("NewCluster(%+v) succeeded, want error", cfg)
		}
	}
}

func TestTreeOptionsValidation(t *testing.T) {
	c := testCluster(t)
	bad := []TreeOptions{
		{KeySize: 4},
		{BulkFill: 1.5},
		{Advanced: &AdvancedOptions{WaitQueues: true}},
		{Advanced: &AdvancedOptions{LocalLockTables: true, Handover: true}},
	}
	for _, opts := range bad {
		if _, err := c.CreateTree(opts); err == nil {
			t.Errorf("CreateTree(%+v) succeeded, want error", opts)
		}
	}
}

func TestPutGetDeleteScan(t *testing.T) {
	for _, engine := range []Engine{EngineSherman, EngineFGPlus} {
		t.Run(engine.String(), func(t *testing.T) {
			c := testCluster(t)
			tree := testTree(t, c, TreeOptions{Engine: engine})
			s := mustSession(t, tree, 0)

			if _, ok := mustGet(t, s, 1); ok {
				t.Fatal("Get on empty tree found a value")
			}
			for k := uint64(1); k <= 500; k++ {
				mustPut(t, s, k, k*3)
			}
			for k := uint64(1); k <= 500; k++ {
				if v, ok := mustGet(t, s, k); !ok || v != k*3 {
					t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, k*3)
				}
			}
			mustPut(t, s, 42, 999) // update
			if v, _ := mustGet(t, s, 42); v != 999 {
				t.Fatalf("updated Get(42) = %d, want 999", v)
			}
			if !mustDelete(t, s, 42) {
				t.Fatal("Delete(42) = false")
			}
			if mustDelete(t, s, 42) {
				t.Fatal("double Delete(42) = true")
			}
			if _, ok := mustGet(t, s, 42); ok {
				t.Fatal("Get(42) after delete found a value")
			}

			kvs := mustScan(t, s, 40, 5)
			want := []uint64{40, 41, 43, 44, 45} // 42 deleted
			if len(kvs) != len(want) {
				t.Fatalf("Scan returned %d rows, want %d", len(kvs), len(want))
			}
			for i, kv := range kvs {
				if kv.Key != want[i] || kv.Value != want[i]*3 {
					t.Fatalf("Scan[%d] = %+v, want key %d", i, kv, want[i])
				}
			}
			if got := mustScan(t, s, 40, 0); got != nil {
				t.Fatalf("Scan span 0 = %v, want nil", got)
			}

		})
	}
}

func TestBulkloadValidation(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	if err := tree.Bulkload([]KV{{Key: 0, Value: 1}}); err == nil {
		t.Error("Bulkload accepted key 0")
	}
	if err := tree.Bulkload([]KV{{Key: 5, Value: 1}, {Key: 5, Value: 2}}); err == nil {
		t.Error("Bulkload accepted duplicate keys")
	}
	if err := tree.Bulkload([]KV{{Key: 5, Value: 1}, {Key: 3, Value: 2}}); err == nil {
		t.Error("Bulkload accepted unsorted keys")
	}
	if err := tree.Bulkload([]KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}}); err != nil {
		t.Errorf("valid Bulkload failed: %v", err)
	}
	s := mustSession(t, tree, 0)
	if v, ok := mustGet(t, s, 2); !ok || v != 20 {
		t.Errorf("Get(2) after bulkload = (%d,%v), want (20,true)", v, ok)
	}
}

// TestKeyZeroRejected: writes of the reserved key 0 return ErrReservedKey
// and never reach the tree.
func TestKeyZeroRejected(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	s := mustSession(t, tree, 0)
	if err := s.Put(0, 1); !errors.Is(err, ErrReservedKey) {
		t.Errorf("Put(0) err = %v, want ErrReservedKey", err)
	}
	if found, err := s.Delete(0); found || !errors.Is(err, ErrReservedKey) {
		t.Errorf("Delete(0) = (%v, %v), want (false, ErrReservedKey)", found, err)
	}
	if st := s.Stats(); st.Inserts != 0 || st.Deletes != 0 || st.RoundTrips != 0 {
		t.Errorf("rejected writes reached the tree: %+v", st)
	}
}

// TestConcurrentSessionsAgainstReference runs concurrent random operations
// on disjoint key stripes — seeded through the shared harness, so a failure
// names the seed — and compares the final tree contents against a
// per-stripe reference map. Validate-on-exit rides on testTree.
func TestConcurrentSessionsAgainstReference(t *testing.T) {
	testutil.RunSeeds(t, 2, func(t *testing.T, seed uint64) {
		c := testCluster(t)
		tree := testTree(t, c, DefaultTreeOptions())

		const workers = 8
		const opsPerWorker = 400
		refs := make([]map[uint64]uint64, workers)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s, err := tree.SessionAt(w % c.ComputeServers())
				if err != nil {
					t.Error(err)
					return
				}
				ref := make(map[uint64]uint64)
				rng := testutil.RNG(seed<<8 | uint64(w))
				base := uint64(w)*100_000 + 1
				for i := 0; i < opsPerWorker; i++ {
					k := base + rng.Uint64N(200)
					switch rng.Uint64N(10) {
					case 0, 1: // delete
						_, err = s.Delete(k)
						delete(ref, k)
					default: // put
						v := rng.Uint64() | 1
						err = s.Put(k, v)
						ref[k] = v
					}
					if err != nil {
						t.Errorf("worker %d key %d: %v", w, k, err)
						return
					}
				}
				refs[w] = ref
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		s := mustSession(t, tree, 0)
		for w, ref := range refs {
			for k, v := range ref {
				got, ok := mustGet(t, s, k)
				if !ok || got != v {
					t.Fatalf("worker %d key %d: Get = (%d,%v), want (%d,true)", w, k, got, ok, v)
				}
			}
		}
	})
}

func TestStatsSurface(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	s := mustSession(t, tree, 0)
	for k := uint64(1); k <= 100; k++ {
		mustPut(t, s, k, k)
	}
	for k := uint64(1); k <= 100; k++ {
		mustGet(t, s, k)
	}
	mustScan(t, s, 1, 10)
	mustDelete(t, s, 50)

	st := s.Stats()
	if st.Inserts != 100 || st.Lookups != 100 || st.Scans != 1 || st.Deletes != 1 {
		t.Errorf("op counts = %+v", st)
	}
	if st.RoundTrips == 0 || st.WriteBytes == 0 {
		t.Errorf("verb counters empty: %+v", st)
	}
	if st.P50LatencyNS <= 0 || st.P99LatencyNS < st.P50LatencyNS {
		t.Errorf("latencies inconsistent: p50=%d p99=%d", st.P50LatencyNS, st.P99LatencyNS)
	}
	if s.VirtualNow() <= 0 {
		t.Error("virtual clock did not advance")
	}
	if s.ComputeServer() != 0 {
		t.Errorf("ComputeServer = %d, want 0", s.ComputeServer())
	}

	ls := tree.LockStats()
	// 100 puts + 1 delete, plus parent-node locks taken by leaf splits.
	if ls.Acquisitions < 101 {
		t.Errorf("lock acquisitions = %d, want >= 101", ls.Acquisitions)
	}
	if cs := tree.CacheStats(0); cs.Capacity <= 0 || cs.Levels <= 0 {
		t.Errorf("cache capacity/levels = %d/%d", cs.Capacity, cs.Levels)
	}
	if st.SpeculativeReads == 0 || st.SpeculativeReads < st.SpeculativeFails {
		t.Errorf("speculation counters inconsistent: reads=%d fails=%d",
			st.SpeculativeReads, st.SpeculativeFails)
	}
	as := c.AllocStats()
	if as.Nodes == 0 || as.ChunkRPCs == 0 {
		t.Errorf("alloc stats empty: %+v", as)
	}
	if c.MemoryUsage() == 0 {
		t.Error("memory usage zero after inserts")
	}
}

// TestAdvancedOptionsMatrix creates a tree for every consistent ablation
// combination and smoke-tests it.
func TestAdvancedOptionsMatrix(t *testing.T) {
	combos := []AdvancedOptions{
		{},
		{CombineCommands: true},
		{OnChipLocks: true},
		{TwoLevelVersions: true},
		{CombineCommands: true, OnChipLocks: true},
		{LocalLockTables: true},
		{LocalLockTables: true, WaitQueues: true},
		{LocalLockTables: true, WaitQueues: true, Handover: true},
		{TwoLevelVersions: true, CombineCommands: true, OnChipLocks: true,
			LocalLockTables: true, WaitQueues: true, Handover: true},
	}
	for _, adv := range combos {
		adv := adv
		c := testCluster(t)
		tree := testTree(t, c, TreeOptions{Advanced: &adv})
		s := mustSession(t, tree, 0)
		for k := uint64(1); k <= 50; k++ {
			mustPut(t, s, k, k+7)
		}
		for k := uint64(1); k <= 50; k++ {
			if v, ok := mustGet(t, s, k); !ok || v != k+7 {
				t.Fatalf("%+v: Get(%d) = (%d,%v)", adv, k, v, ok)
			}
		}
	}
}

func TestKeySizeOption(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, TreeOptions{KeySize: 64, NodeSize: 4096})
	s := mustSession(t, tree, 0)
	for k := uint64(1); k <= 200; k++ {
		mustPut(t, s, k, k*2)
	}
	for k := uint64(1); k <= 200; k++ {
		if v, ok := mustGet(t, s, k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
		}
	}
}

func TestFabricParamOverrides(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		MemoryServers:  1,
		ComputeServers: 1,
		Fabric: FabricParams{
			RTTNS:          5000,
			AtomicBuckets:  64,
			OnChipMemBytes: 128 << 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t, c, DefaultTreeOptions())
	s := mustSession(t, tree, 0)
	mustPut(t, s, 1, 2)
	if v, ok := mustGet(t, s, 1); !ok || v != 2 {
		t.Fatalf("Get(1) = (%d,%v)", v, ok)
	}
	// A 5 us RTT means even one round trip exceeds 5000 virtual ns.
	if s.VirtualNow() < 5000 {
		t.Errorf("virtual clock %d too small for RTT override", s.VirtualNow())
	}
}

func TestStatsAndCompact(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	s := mustSession(t, tree, 0)
	const n = 4000
	for k := uint64(1); k <= n; k++ {
		mustPut(t, s, k, k)
	}
	st := tree.Stats()
	if st.Entries != n || st.Height < 2 || st.LeafNodes == 0 {
		t.Fatalf("stats after inserts: %+v", st)
	}
	for k := uint64(1); k <= n; k++ {
		if k%8 != 0 {
			mustDelete(t, s, k)
		}
	}
	res := tree.Compact()
	if res.EntriesKept != n/8 || res.BytesReclaimed <= 0 || res.NodesAfter >= res.NodesBefore {
		t.Fatalf("compact: %+v", res)
	}
	// Sessions opened after Compact see exactly the survivors.
	s2 := mustSession(t, tree, 1)
	for k := uint64(8); k <= n; k += 8 {
		if v, ok := mustGet(t, s2, k); !ok || v != k {
			t.Fatalf("survivor %d = (%d,%v)", k, v, ok)
		}
	}
	if _, ok := mustGet(t, s2, 3); ok {
		t.Fatal("deleted key resurrected")
	}
	after := tree.Stats()
	if after.LeafFill <= st.LeafFill-0.2 {
		t.Fatalf("fill did not recover: %.2f -> %.2f", st.LeafFill, after.LeafFill)
	}
}
