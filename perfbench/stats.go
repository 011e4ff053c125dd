package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest sample with at least p% of the samples at or
// below it. It returns the value and the sample count it rests on;
// an empty sample set returns (0, 0). samples is not modified.
func percentile(samples []time.Duration, p float64) (time.Duration, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return s[rank-1], n
}

// ms renders a duration as float milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pctMs is percentile in milliseconds.
func pctMs(samples []time.Duration, p float64) float64 {
	v, _ := percentile(samples, p)
	return ms(v)
}

// median of float samples (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// metricName is the shape every printed metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an insertion-checked name → metric table.
type metrics map[string]metric

// set records a metric, rejecting malformed or duplicate names and
// non-finite values — those are bugs in the benchmark, not results.
func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) || len(name) > 64 {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %q is %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}
