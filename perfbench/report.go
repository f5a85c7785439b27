package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"

	"sherman"
	"sherman/internal/workload"
)

// fidelityTol is how far the traced run's round trips per op and
// latency-hiding ratio may stray from the untraced run's, as a share of the
// untraced value, before the traced run is declared unfaithful.
const fidelityTol = 0.1

// endToEnd sets the untraced run's metrics. The timings are medians over
// the window's intervals, so a disturbance of the host that lasts less
// than half the window does not move them. Tail percentiles are in the
// detail line, not here: see README.md.
func endToEnd(m metrics, u *window, setupS float64) {
	m.set("throughput_ops_s", "ops/s", u.ivMedian(ivTput))
	m.set("read_p50_us", "us", u.ivMedian(func(iv ivStats) float64 { return iv.P50[classRead] }))
	m.set("put_p50_us", "us", u.ivMedian(func(iv ivStats) float64 { return iv.P50[classPut] }))
	m.set("client_cpu_us_per_op", "us", u.ivMedian(func(iv ivStats) float64 { return iv.CPUPerOp }))
	m.set("space_bytes_per_key", "B", ratio(float64(u.tree.BytesUsed), float64(u.tree.Entries)))
	m.set("setup_s", "s", setupS)
}

func ivTput(iv ivStats) float64 { return iv.Tput }

// perLayer sets the traced run's per-layer metrics.
func perLayer(m metrics, w *window, vt verbTotals, st setupTimes) {
	ops := float64(w.ops)
	puts := float64(w.sess.Inserts)
	b, a := w.before, w.after
	d := func(x, y int64) float64 { return float64(y - x) }

	var latSum float64
	for _, l := range w.loops {
		for _, sp := range l.spans {
			latSum += float64(sp.end - sp.start)
		}
	}
	m.set("core.round_trips_per_op", "count", float64(w.sess.RoundTrips)/ops)
	m.set("core.hiding_ratio", "ratio", w.hiding)
	m.set("core.doorbell_ops_per_batch", "count", ratio(float64(w.sess.DoorbellOps), float64(w.sess.DoorbellBatches)))
	m.set("core.self_us_per_op", "us", (latSum-float64(vt.unionNS))/1e3/ops)

	hits, misses := d(b.cacheHits, a.cacheHits), d(b.cacheMisses, a.cacheMisses)
	m.set("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("cache.evictions_per_kop", "count", d(b.cacheEvictions, a.cacheEvictions)*1e3/ops)
	m.set("cache.admission_rejects_per_kop", "count", d(b.cacheRejects, a.cacheRejects)*1e3/ops)
	m.set("cache.spec_fail_ratio", "ratio", ratio(float64(w.sess.SpeculativeFails), float64(w.sess.SpeculativeReads)))

	acq := d(b.lockAcq, a.lockAcq)
	m.set("hocl.handover_ratio", "ratio", ratio(d(b.lockHandovers, a.lockHandovers), acq))
	m.set("hocl.local_waits_per_acq", "count", ratio(d(b.lockLocalWaits, a.lockLocalWaits), acq))
	m.set("hocl.global_retries_per_acq", "count", ratio(d(b.lockRetries, a.lockRetries), acq))
	m.set("hocl.cas_failures_per_kop", "count", float64(w.sess.CASFailures)*1e3/ops)

	m.set("layout.write_bytes_per_put", "B", ratio(float64(w.sess.WriteBytes), puts))
	m.set("layout.leaf_fill", "ratio", w.tree.LeafFill)

	m.set("alloc.nodes_per_kput", "count", ratio(d(b.allocNodes, a.allocNodes)*1e3, puts))
	m.set("alloc.chunk_rpcs", "count", d(b.allocChunks, a.allocChunks))

	for k := verbKind(0); k < vGrowChunk; k++ {
		name := verbNames[k]
		m.set("tcp.verbs_per_op."+name, "count", float64(vt.count[k])/ops)
		if reportedVerbTimes[k] {
			s := summarize(vt.durations[k])
			m.set("tcp.verb_us."+name+".p50", "us", s.P50/1e3)
			m.set("tcp.verb_us."+name+".p99", "us", s.P99/1e3)
		}
	}
	m.set("tcp.syscalls_per_op", "count", float64(w.self.syscalls)/ops)
	m.set("tcp.wire_bytes_per_op", "B", float64(w.self.ioBytes)/ops)
	m.set("tcp.vol_ctx_switches_per_op", "count", float64(w.self.volCtx)/ops)

	var inbound, maxLoad float64
	for i := range a.serverOps {
		n := d(b.serverOps[i], a.serverOps[i])
		inbound += n
		maxLoad = math.Max(maxLoad, n)
	}
	m.set("shermand.cpu_us_per_op", "us", float64(w.servers.cpuNS)/1e3/ops)
	m.set("shermand.syscalls_per_op", "count", float64(w.servers.syscalls)/ops)
	m.set("shermand.inbound_ops_per_op", "count", inbound/ops)
	m.set("shermand.load_skew", "ratio", ratio(maxLoad, inbound/float64(len(a.serverOps))))
	m.set("shermand.rss_mb", "MB", float64(w.servers.rssBytes)/(1<<20))

	m.set("runtime.allocs_per_op", "count", w.allocs/ops)
	m.set("runtime.gc_cpu_frac", "ratio", ratio(w.gcCPU, w.rtCPU))

	m.set("setup.launch_s", "s", st.launch.Seconds())
	m.set("setup.bulkload_s", "s", st.load.Seconds())
}

// reportedVerbTimes marks the verb kinds whose latency percentiles are
// metrics: those every workload issues in every run. The other kinds are
// still counted (tcp.verbs_per_op) and their spans written out.
var reportedVerbTimes = [numVerbKinds]bool{vRead: true, vCAS16: true, vPostWrites: true}

// fidelity compares the traced run with the untraced one: a timing wrapper
// that changed what the executor does (say, a transport that serialises the
// pipeline) shows up as different round trips per op or latency hiding.
func fidelity(u, t *window) []string {
	var out []string
	check := func(name string, uv, tv float64) {
		if math.Abs(tv-uv) > fidelityTol*math.Abs(uv) {
			out = append(out, fmt.Sprintf("fidelity: traced %s %.4f vs untraced %.4f (tolerance %.0f%%)", name, tv, uv, fidelityTol*100))
		}
	}
	check("core.round_trips_per_op", float64(u.sess.RoundTrips)/float64(u.ops), float64(t.sess.RoundTrips)/float64(t.ops))
	check("core.hiding_ratio", u.hiding, t.hiding)
	return out
}

// addSessionStats adds the counters the metrics use.
func addSessionStats(dst *sherman.SessionStats, s sherman.SessionStats) {
	dst.Lookups += s.Lookups
	dst.Inserts += s.Inserts
	dst.Scans += s.Scans
	dst.RoundTrips += s.RoundTrips
	dst.WriteBytes += s.WriteBytes
	dst.CASFailures += s.CASFailures
	dst.DoorbellBatches += s.DoorbellBatches
	dst.DoorbellOps += s.DoorbellOps
	dst.SpeculativeReads += s.SpeculativeReads
	dst.SpeculativeFails += s.SpeculativeFails
	dst.PipelinedOps += s.PipelinedOps
}

// readRuntime samples the Go runtime's cumulative heap allocations, GC CPU
// seconds and total CPU seconds.
func readRuntime() [3]float64 {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	var out [3]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// windowDetail is the part of a window the detail line reports: sample
// counts with the percentile rule's tail, and the warm-up.
func windowDetail(w *window) map[string]any {
	lat := map[string]any{}
	for c, name := range [numClasses]string{"read", "put"} {
		s := w.lat[c]
		lat[name] = map[string]any{"samples": s.N, "p50_us": s.P50 / 1e3, "p99_us": s.P99 / 1e3,
			"tail_pct": s.TailPct, "tail_us": s.Tail / 1e3}
	}
	return map[string]any{
		"ops": w.ops, "failed": w.failed, "latency": lat, "intervals": w.ivs,
		"round_trips_per_op": float64(w.sess.RoundTrips) / float64(w.ops), "hiding_ratio": w.hiding,
		"warmup_s": w.warmup.Seconds(), "warmup_hit_ratio": w.hitRatio, "warmup_failed": w.warmFailed,
		"tree": w.tree,
	}
}

func printJSON(out io.Writer, key string, v any) error {
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// header is the reproducibility header: everything needed to rerun this
// invocation and to tell the host and code it ran on.
func header(o options, s spec, g workload.Config) map[string]any {
	return map[string]any{
		"options":        o,
		"workload":       s,
		"generator":      g,
		"loaded_keys":    g.LoadedKeys(),
		"sessions":       sessions,
		"memory_servers": memoryServers,
		"git_commit":     gitCommit(),
		"source_sha256":  sourceDigest("."),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
	}
}

// gitCommit is HEAD of the repository at the working directory, or
// "unknown" when the directory is not the top of a git checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root (skipping
// dot-directories such as .git and the build directory), so a result names
// the code it measured even where there is no git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
