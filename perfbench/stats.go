package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
)

// summary is a latency distribution reduced by the percentile rule: the
// median, the fixed p99 the metrics report, and the highest percentile of
// the ladder that still has at least tailMinBeyond samples beyond it.
type summary struct {
	N       int
	P50     float64
	P99     float64
	TailPct float64 // 0 when not even p90 has tailMinBeyond samples beyond it
	Tail    float64
}

// tailMinBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const tailMinBeyond = 10

// tailLadder lists the tail percentiles the rule chooses from, lowest first.
var tailLadder = []float64{90, 99, 99.9, 99.99, 99.999}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(p, len(sorted)) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

// rank is the 1-based nearest rank of the p-th percentile of n samples. The
// tolerance keeps ranks that are whole numbers in exact arithmetic (p99.9 of
// 10000) from rounding up in floating point.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile returns the highest ladder percentile with at least
// tailMinBeyond of n samples strictly beyond its rank, or 0 if none has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p, n) >= tailMinBeyond {
			best = p
		}
	}
	return best
}

// summarize sorts samples in place and applies the percentile rule.
func summarize(samples []int64) summary {
	slices.Sort(samples)
	s := summary{N: len(samples), P50: percentile(samples, 50), P99: percentile(samples, 99)}
	if p := tailPercentile(len(samples)); p > 0 {
		s.TailPct, s.Tail = p, percentile(samples, p)
	}
	return s
}

// median returns the median of xs (the mean of the middle two for an even
// count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the name rule every reported metric obeys: it starts with a
// letter or digit and is made of letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metrics collects named metrics, rejecting malformed names and values that
// are not finite numbers.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	m[name] = metric{Value: v, Unit: unit}
}

// validate checks every name against the rule and every value for NaN/Inf.
func (m metrics) validate() error {
	for name, v := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
