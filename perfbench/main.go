// Command perfbench is the repository's benchmark: a closed-loop load
// generator that drives two sessions against two shermand memory-server
// processes on loopback and reports end-to-end metrics (untraced run) or
// per-layer metrics (--trace 1, which adds a traced run over a timing
// transport). README.md describes the workloads and metrics; run it with
// perfbench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sherman"
	"sherman/internal/workload"
)

// options is one invocation's whole configuration. Keys, Setups and
// TraceDir are fixed for the command; the smoke test shrinks them.
type options struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Keys     uint64  `json:"keys"`
	Setups   int     `json:"setups"`
	TraceDir string  `json:"trace_dir"`
}

func main() {
	o := options{Keys: 1 << 20, Setups: 3, TraceDir: ".bench_build/trace"}
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload name: write-skew or read-cold")
	flag.Uint64Var(&o.Seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.Seconds, "seconds", 45, "length of each measured window")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	flag.Parse()
	o.Trace = trace == 1
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.Seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// window is what one measured window observed.
type window struct {
	loops      []*loop
	ops        int64 // operations submitted in the window (all completed)
	failed     int64
	violations []string
	lat        [numClasses]summary  // whole window
	sess       sherman.SessionStats // summed over sessions
	hiding     float64              // mean of the sessions' latency-hiding ratios
	before     counters
	after      counters
	self       procSample
	servers    procSample
	allocs     float64 // heap objects allocated
	gcCPU      float64 // GC CPU seconds
	rtCPU      float64 // CPU seconds the runtime accounted
	warmup     time.Duration
	warmFailed int64   // failed warm-up ops; not in ops or failed
	hitRatio   float64 // warm-up's final interval
	tree       sherman.TreeStats
	ivs        []ivStats
}

// Warm-up ends when the cache hit ratio of consecutive warmTickNS
// intervals stops moving by more than warmTol, or after warmMax.
const (
	warmTickNS = 500 * time.Millisecond
	warmTol    = 0.01
	warmMax    = 15 * time.Second
)

func run(o options, out io.Writer) (*result, error) {
	s, err := findSpec(o.Workload)
	if err != nil {
		return nil, err
	}
	gcfg := s.genConfig(o.Keys)
	loaded := gcfg.LoadedKeys()
	kvs := loadKVs(loaded)
	if err := printJSON(out, "header", header(o, s, gcfg)); err != nil {
		return nil, err
	}

	// Untraced run: several set-ups for setup_s, the last one measured.
	var setups []float64
	var pt *publicTarget
	for i := 0; i < o.Setups; i++ {
		t, st, err := launchPublic(s, kvs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st.total().Seconds())
		if i < o.Setups-1 {
			t.close()
		} else {
			pt = t
		}
	}
	u, err := measure(pt, s, gcfg, o, nil)
	pt.close()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: u.ops, Failed: u.failed, Metrics: metrics{}}
	problems := u.violations
	detail := map[string]any{"setup_s": setups, "untraced": windowDetail(u)}

	if !o.Trace {
		endToEnd(res.Metrics, u, median(setups))
	} else {
		tb := &tracer{}
		tt, st, err := launchTraced(s, kvs, tb)
		if err != nil {
			return nil, err
		}
		tw, err := measure(tt, s, gcfg, o, tb)
		tt.close()
		if err != nil {
			return nil, err
		}
		res.Attempted += tw.ops
		res.Failed += tw.failed
		problems = append(problems, tw.violations...)
		vt := reduceSpans(tb.snapshot())
		perLayer(res.Metrics, tw, vt, st)
		res.Metrics.set("trace.overhead_frac", "ratio", 1-ratio(tw.ivMedian(ivTput), u.ivMedian(ivTput)))
		problems = append(problems, fidelity(u, tw)...)
		detail["traced"] = windowDetail(tw)
		path := filepath.Join(o.TraceDir, s.Name+".tsv")
		if err := writeSpans(path, tw.loops, tb.snapshot()); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		detail["spans"] = path
	}
	if err := res.Metrics.validate(); err != nil {
		return nil, err
	}
	if len(problems) > 0 {
		res.Correct = false
		detail["problems"] = problems
	}
	if err := printJSON(out, "detail", detail); err != nil {
		return nil, err
	}
	return res, nil
}

// measure warms t up until its cache hit ratio levels off, then runs the
// measured window on fresh sessions and checks the tree afterwards. With a
// tracer, verb spans are recorded for exactly the window.
func measure(t target, s spec, gcfg workload.Config, o options, tb *tracer) (*window, error) {
	w := &window{}
	base := workload.NewGenerator(gcfg, o.Seed)
	gens := func(salt uint64) []*workload.Generator {
		g := make([]*workload.Generator, sessions)
		for i := range g {
			g[i] = workload.NewGeneratorFrom(base, o.Seed*1_000_003+salt+uint64(i))
		}
		return g
	}
	newLoops := func(salt uint64) ([]*loop, error) {
		var loops []*loop
		for i, g := range gens(salt) {
			sess, err := t.session(i, s.Depth)
			if err != nil {
				return nil, err
			}
			loops = append(loops, newLoop(sess, g, s.Depth, gcfg.LoadedKeys()))
		}
		return loops, nil
	}

	// Warm-up: run until the cache hit ratio levels off.
	warm, err := newLoops(1000)
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	var warmErr error
	ended := make(chan struct{})
	go func() {
		warmErr = runLoops(warm, &stop, 0)
		close(ended)
	}()
	w.warmup, w.hitRatio = awaitLevel(t, ended)
	stop.Store(true)
	<-ended
	if warmErr != nil {
		return nil, warmErr
	}
	for _, l := range warm {
		w.violations = append(w.violations, l.violations...)
		w.warmFailed += l.failed
	}

	// Measured window: nIv intervals of ivNS, together o.Seconds long.
	if w.loops, err = newLoops(0); err != nil {
		return nil, err
	}
	pids, err := childPIDs("shermand")
	if err != nil || len(pids) != memoryServers {
		return nil, fmt.Errorf("finding the shermand processes: %d found, err %v", len(pids), err)
	}
	nIv := max(1, int(o.Seconds/2))
	ivNS := int64(o.Seconds * 1e9 / float64(nIv))
	w.before = t.counters()
	selfBefore, err := selfSample()
	if err != nil {
		return nil, err
	}
	srvBefore, err := serverSample(pids)
	if err != nil {
		return nil, err
	}
	rtBefore := readRuntime()
	t0 := w.loops[0].sess.now()
	for _, l := range w.loops {
		l.record, l.t0, l.ivNS, l.ivs, l.keepSpans = true, t0, ivNS, make([]interval, nIv), tb != nil
	}
	cpuAt := make(chan []int64, 1)
	go func() { cpuAt <- sampleCPU(time.Now(), nIv, time.Duration(ivNS)) }()
	if tb != nil {
		tb.on.Store(true)
	}
	stop.Store(false)
	err = runLoops(w.loops, &stop, t0+int64(nIv)*ivNS)
	if tb != nil {
		tb.on.Store(false)
	}
	ivCPU := <-cpuAt
	if err != nil {
		return nil, err
	}
	rtAfter := readRuntime()
	selfAfter, err := selfSample()
	if err != nil {
		return nil, err
	}
	srvAfter, err := serverSample(pids)
	if err != nil {
		return nil, err
	}
	w.after = t.counters()
	w.self, w.servers = selfAfter.sub(selfBefore), srvAfter.sub(srvBefore)
	w.allocs = rtAfter[0] - rtBefore[0]
	w.gcCPU = rtAfter[1] - rtBefore[1]
	w.rtCPU = rtAfter[2] - rtBefore[2]
	w.reduce(nIv, ivNS, ivCPU)
	if w.ops == 0 {
		return nil, errors.New("the measured window completed no operations")
	}

	if err := t.validate(); err != nil {
		w.violations = append(w.violations, "Validate: "+err.Error())
	}
	w.tree = t.treeStats()
	return w, nil
}

// reduce folds the loops' records into the window: totals, whole-window
// latency summaries, and per interval the throughput, latency percentiles
// and client CPU per op that the end-to-end metrics take the median of.
func (w *window) reduce(nIv int, ivNS int64, ivCPU []int64) {
	var all [numClasses][]int64
	w.ivs = make([]ivStats, nIv)
	for i := range w.ivs {
		var ops int64
		var lat [numClasses][]int64
		for _, l := range w.loops {
			ops += l.ivs[i].ops
			for c := range lat {
				lat[c] = append(lat[c], l.ivs[i].lat[c]...)
			}
		}
		iv := &w.ivs[i]
		iv.Tput = float64(ops) / (float64(ivNS) / 1e9)
		iv.CPUPerOp = ratio(float64(ivCPU[i])/1e3, float64(ops))
		for c := range lat {
			s := summarize(lat[c])
			iv.Samples[c], iv.P50[c], iv.P99[c] = s.N, s.P50/1e3, s.P99/1e3
			all[c] = append(all[c], lat[c]...)
		}
	}
	for c := range all {
		w.lat[c] = summarize(all[c])
	}
	for _, l := range w.loops {
		w.ops += l.attempted
		w.failed += l.failed
		w.violations = append(w.violations, l.violations...)
		st := l.sess.stats()
		addSessionStats(&w.sess, st)
		w.hiding += st.LatencyHidingRatio / sessions
	}
}

// ivStats is one interval of the window, both sessions together.
type ivStats struct {
	Tput     float64             `json:"tput_ops_s"`
	CPUPerOp float64             `json:"client_cpu_us_per_op"`
	Samples  [numClasses]int     `json:"samples"`
	P50      [numClasses]float64 `json:"p50_us"`
	P99      [numClasses]float64 `json:"p99_us"`
}

// ivMedian is the median over the window's intervals of f.
func (w *window) ivMedian(f func(ivStats) float64) float64 {
	xs := make([]float64, len(w.ivs))
	for i, iv := range w.ivs {
		xs[i] = f(iv)
	}
	return median(xs)
}

// sampleCPU reads this process's CPU time at start and then every iv, n
// times, and returns the CPU spent in each of the n intervals.
func sampleCPU(start time.Time, n int, iv time.Duration) []int64 {
	out := make([]int64, n)
	prev := cpuNow()
	for i := range out {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * iv)))
		now := cpuNow()
		out[i], prev = now-prev, now
	}
	return out
}

// awaitLevel watches the cache hit ratio while the warm-up loops run and
// returns once it levels off, warmMax passes, or the loops end on their own
// (an error). It returns the warm-up's length and its last interval's ratio.
func awaitLevel(t target, ended <-chan struct{}) (time.Duration, float64) {
	start := time.Now()
	tick := time.NewTicker(warmTickNS)
	defer tick.Stop()
	c := t.counters()
	var ratios []float64
	for {
		select {
		case <-ended:
			return time.Since(start), 0
		case <-tick.C:
		}
		n := t.counters()
		hits, misses := n.cacheHits-c.cacheHits, n.cacheMisses-c.cacheMisses
		c = n
		ratios = append(ratios, ratio(float64(hits), float64(hits+misses)))
		k := len(ratios)
		if k >= 3 && math.Abs(ratios[k-1]-ratios[k-2]) < warmTol && math.Abs(ratios[k-2]-ratios[k-3]) < warmTol ||
			time.Since(start) >= warmMax {
			return time.Since(start), ratios[k-1]
		}
	}
}
