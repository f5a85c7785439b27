package sherman

import (
	"errors"
	"sync"
	"testing"

	"sherman/internal/testutil"
)

// TestBatchSequentialEquivalenceProperty checks, for deterministic seeds,
// through the public API, that single-kind Exec batches of puts, gets and
// deletes are observably equivalent to the same operations applied
// sequentially — including
// batches that straddle leaf splits and deletes of absent keys — across
// the shared harness's ablation grid.
func TestBatchSequentialEquivalenceProperty(t *testing.T) {
	for _, opts := range gridOptions() {
		opts := opts
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 6, func(t *testing.T, seed uint64) {
				rng := testutil.RNG(seed)
				mk := func() *Session {
					c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
					if err != nil {
						t.Fatal(err)
					}
					return mustSession(t, testTree(t, c, opts), 0)
				}
				seq, bat := mk(), mk()

				const keySpace = 300
				for round := 0; round < 5; round++ {
					n := int(rng.Uint64N(80)) + 1
					switch rng.Uint64N(3) {
					case 0:
						ops := make([]Op, n)
						for i := range ops {
							ops[i] = PutOp(rng.Uint64N(keySpace)+1, rng.Uint64()|1)
							mustPut(t, seq, ops[i].Key, ops[i].Value)
						}
						for i, r := range bat.Exec(ops) {
							if r.Err != nil {
								t.Fatalf("Exec put %d: %v", ops[i].Key, r.Err)
							}
						}
					case 1:
						ops := make([]Op, n)
						for i := range ops {
							ops[i] = DeleteOp(rng.Uint64N(2*keySpace) + 1) // half absent
						}
						for i, r := range bat.Exec(ops) {
							k := ops[i].Key
							if want := mustDelete(t, seq, k); r.Err != nil || r.Found != want {
								t.Fatalf("Exec delete(%d) = (%v,%v), want %v", k, r.Found, r.Err, want)
							}
						}
					default:
						ops := make([]Op, n)
						for i := range ops {
							ops[i] = GetOp(rng.Uint64N(keySpace) + 1)
						}
						for i, r := range bat.Exec(ops) {
							k := ops[i].Key
							wv, wok := mustGet(t, seq, k)
							if r.Err != nil || r.Found != wok || (wok && r.Value != wv) {
								t.Fatalf("Exec get(%d) = (%d,%v,%v), want (%d,%v)", k, r.Value, r.Found, r.Err, wv, wok)
							}
						}
					}
				}
				for k := uint64(1); k <= keySpace; k++ {
					wv, wok := mustGet(t, seq, k)
					gv, gok := mustGet(t, bat, k)
					if wok != gok || (wok && wv != gv) {
						t.Fatalf("final key %d mismatch: batch (%d,%v), sequential (%d,%v)", k, gv, gok, wv, wok)
					}
				}
			})
		})
	}
}

// name renders the ablation cell for subtest names.
func (a *AdvancedOptions) name() string {
	mode := "checksum"
	if a.TwoLevelVersions {
		mode = "two-level"
	}
	if a.CombineCommands {
		return mode + "/combine"
	}
	return mode + "/nocombine"
}

// TestBatchConcurrentSessions runs concurrent batched writers on disjoint
// stripes, then validates the tree and checks contents — the public-API
// face of the concurrent-batch-churn acceptance criterion.
func TestBatchConcurrentSessions(t *testing.T) {
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t, c, TreeOptions{NodeSize: testutil.SmallNodeSize})

	const workers = 8
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
			rng := testutil.RNG(uint64(w) + 1)
			ref := make(map[uint64]uint64)
			base := uint64(w)*100_000 + 1
			for round := 0; round < 25; round++ {
				ops := make([]Op, int(rng.Uint64N(40))+1)
				del := rng.Uint64N(4) == 0
				for i := range ops {
					k := base + rng.Uint64N(400)
					if del {
						ops[i] = DeleteOp(k)
						delete(ref, k)
					} else {
						ops[i] = PutOp(k, rng.Uint64()|1)
						ref[k] = ops[i].Value
					}
				}
				for i, r := range s.Exec(ops) {
					if r.Err != nil {
						t.Errorf("worker %d: Exec op %+v: %v", w, ops[i], r.Err)
						return
					}
				}
			}
			refs[w] = ref
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after concurrent batch churn: %v", err)
	}
	s := mustSession(t, tree, 0)
	for w, ref := range refs {
		ops := make([]Op, 0, len(ref))
		for k := range ref {
			ops = append(ops, GetOp(k))
		}
		for i, r := range s.Exec(ops) {
			k := ops[i].Key
			if r.Err != nil || !r.Found || r.Value != ref[k] {
				t.Fatalf("worker %d key %d: Exec get = (%d,%v,%v), want (%d,true)", w, k, r.Value, r.Found, r.Err, ref[k])
			}
		}
	}

	st := s.Stats()
	if st.Batches == 0 || st.BatchedOps == 0 || st.BatchLeafGroups == 0 {
		t.Errorf("batch counters empty: %+v", st)
	}
	if st.BatchedOps < st.BatchLeafGroups {
		t.Errorf("BatchedOps %d < BatchLeafGroups %d: grouping never amortized", st.BatchedOps, st.BatchLeafGroups)
	}
}

// TestBatchEmptyAndKeyZero covers the degenerate inputs: an empty batch, and
// a batch of nothing but reserved-key writes, which errors in place and
// leaves the tree untouched.
func TestBatchEmptyAndKeyZero(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	s := mustSession(t, tree, 0)
	if res := s.Exec(nil); len(res) != 0 {
		t.Errorf("Exec(nil) = %v, want no results", res)
	}
	for i, r := range s.Exec([]Op{PutOp(0, 1), DeleteOp(0)}) {
		if !errors.Is(r.Err, ErrReservedKey) || r.Found {
			t.Errorf("Exec key-0 slot %d = %+v, want ErrReservedKey", i, r)
		}
	}
	if st := s.Stats(); st.Batches != 0 || st.Inserts != 0 || st.Deletes != 0 {
		t.Errorf("rejected batch reached the tree: %+v", st)
	}
}
