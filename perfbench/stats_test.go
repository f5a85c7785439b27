package main

import (
	"math"
	"strings"
	"testing"

	"sherman"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // reversed: summarize must sort
		}
		return s
	}
	cases := []struct {
		n       int
		tailPct float64
	}{
		{n: 0, tailPct: 0},
		{n: 99, tailPct: 0},    // p90 leaves 9 beyond
		{n: 100, tailPct: 90},  // p90 leaves exactly 10 beyond
		{n: 999, tailPct: 90},  // p99 leaves 9 beyond
		{n: 1000, tailPct: 99}, // p99 leaves exactly 10 beyond
		{n: 10000, tailPct: 99.9},
		{n: 123456, tailPct: 99.99},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailPct != c.tailPct {
			t.Errorf("n=%d: N=%d tail p%v, want p%v", c.n, s.N, s.TailPct, c.tailPct)
		}
		if c.n == 0 {
			continue
		}
		if want := float64((c.n + 1) / 2); s.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, s.P50, want)
		}
		if want := math.Ceil(0.99 * float64(c.n)); s.P99 != want {
			t.Errorf("n=%d: p99 %v, want %v", c.n, s.P99, want)
		}
		if s.TailPct > 0 {
			beyond := 0
			for v := int64(1); v <= int64(c.n); v++ {
				if float64(v) > s.Tail {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("n=%d: tail p%v = %v has %d samples beyond it", c.n, s.TailPct, s.Tail, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %v, want 3", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
}

func TestMetricNameValidation(t *testing.T) {
	good := []string{"throughput_ops_s", "tcp.verb_us.cas16.p99", "a", "9x", "shermand.rss_mb", "a-b"}
	bad := []string{"", "_x", ".x", "a b", "a/b", "p99%", "é", strings.Repeat("a", 65)}
	for _, n := range good {
		m := metrics{}
		m.set(n, "us", 1)
		if err := m.validate(); err != nil {
			t.Errorf("%q rejected: %v", n, err)
		}
	}
	for _, n := range bad {
		m := metrics{}
		m.set(n, "us", 1)
		if m.validate() == nil {
			t.Errorf("%q accepted", n)
		}
	}
	m := metrics{}
	m.set("x", "us", math.NaN())
	if m.validate() == nil {
		t.Error("NaN accepted")
	}
}

func TestUnionLength(t *testing.T) {
	spans := []span{{start: 10, end: 20}, {start: 0, end: 5}, {start: 15, end: 30}, {start: 30, end: 31}, {start: 40, end: 41}}
	if got := unionLength(spans); got != 5+21+1 {
		t.Errorf("union %d, want 27", got)
	}
	if unionLength(nil) != 0 {
		t.Error("empty union is not 0")
	}
}

// The correctness check must catch every kind of wrong answer it claims to.
func TestCheckCatchesWrongResults(t *testing.T) {
	l := &loop{loaded: 100}
	kv := func(k uint64) sherman.KV { return sherman.KV{Key: k, Value: taggedValue(k, 7)} }
	scan := func(kvs ...sherman.KV) sherman.Result { return sherman.Result{KVs: kvs} }
	ok := []struct {
		op  sherman.Op
		res sherman.Result
	}{
		{sherman.GetOp(5), sherman.Result{Found: true, Value: taggedValue(5, 3)}},
		{sherman.GetOp(500), sherman.Result{}}, // unloaded, never written
		{sherman.ScanOp(98, 4), scan(kv(98), kv(99), kv(100), kv(700))},
		{sherman.ScanOp(99, 5), scan(kv(99), kv(100), kv(700))}, // end of the key space
	}
	for _, c := range ok {
		if msg := l.check(c.op, c.res); msg != "" {
			t.Errorf("%+v: correct result rejected: %s", c.op, msg)
		}
	}
	wrong := []struct {
		op  sherman.Op
		res sherman.Result
	}{
		{sherman.GetOp(5), sherman.Result{Found: true, Value: taggedValue(6, 3)}},
		{sherman.GetOp(5), sherman.Result{}},
		{sherman.ScanOp(10, 3), scan(kv(10), kv(12), kv(13))},                // 11 missing
		{sherman.ScanOp(10, 3), scan(kv(10), kv(11), kv(11))},                // not strictly ascending
		{sherman.ScanOp(10, 2), scan(kv(9), kv(10))},                         // below the start
		{sherman.ScanOp(10, 2), scan(kv(10), sherman.KV{Key: 11, Value: 1})}, // wrong tag
		{sherman.ScanOp(10, 3), scan(kv(10), kv(11))},                        // ended early
		{sherman.ScanOp(10, 1), scan(kv(10), kv(11))},                        // too many
	}
	for _, c := range wrong {
		if l.check(c.op, c.res) == "" {
			t.Errorf("%+v -> %+v: wrong result accepted", c.op, c.res)
		}
	}
}
