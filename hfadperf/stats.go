package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one timed operation: start and end in ns since the run's
// epoch. For open-loop requests start is the due time.
type sample struct{ start, end int64 }

func (s sample) dur() time.Duration { return time.Duration(s.end - s.start) }

// samples collects latencies from several goroutines.
type samples struct {
	mu  sync.Mutex
	all []sample
}

func (s *samples) add(x sample) {
	s.mu.Lock()
	s.all = append(s.all, x)
	s.mu.Unlock()
}

func (s *samples) list() []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.all...)
}

// dist is a sorted set of durations.
type dist []time.Duration

func distOf(xs []sample) dist {
	d := make(dist, len(xs))
	for i, x := range xs {
		d[i] = x.dur()
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func durDist(ds []time.Duration) dist {
	d := append(dist(nil), ds...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// q returns the q-quantile by the nearest-rank rule (0 when empty).
func (d dist) q(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}

// tail returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it, and its label; "" when even p90 has fewer.
func (d dist) tail() (time.Duration, string) {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if float64(len(d))*(1-p) >= 10 {
			return d.q(p), fmt.Sprintf("p%g", p*100)
		}
	}
	return 0, ""
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (the upper one for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// medianDur returns the median of ds (the upper one for even counts).
func medianDur(ds []time.Duration) time.Duration {
	return durDist(ds).q(0.5)
}
