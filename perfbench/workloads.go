package main

import (
	"fmt"

	"sherman/internal/workload"
)

// spec fixes everything about a workload except its seed: the operation
// mix, the key popularity, the index-cache budget and the pipeline depth.
type spec struct {
	Name       string `json:"name"`
	Mix        string `json:"mix"`
	mix        workload.Mix
	Dist       string `json:"dist"`
	dist       workload.Dist
	CacheBytes int64 `json:"cache_bytes"` // 0 = the library default (64 MB)
	Depth      int   `json:"depth"`
}

// specs are the benchmark's workloads; BENCHMARK.json names the same two
// and README.md says which layers each loads and which it bypasses.
var specs = []spec{
	{Name: "write-skew", Mix: "50get/50put", mix: workload.WriteIntensive, Dist: "zipf0.99", dist: workload.Zipfian, Depth: 4},
	{Name: "read-cold", Mix: "95get/5put", mix: workload.ReadIntensive, Dist: "uniform", dist: workload.Uniform, CacheBytes: 64 << 10, Depth: 1},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// genConfig is the generator configuration over a key space of the given
// size: the repository's YCSB defaults (80% bulkloaded, 2/3 of puts update
// loaded keys, Zipf theta 0.99, scan span 100).
func (s spec) genConfig(keys uint64) workload.Config {
	return workload.DefaultConfig(s.mix, s.dist, keys)
}
