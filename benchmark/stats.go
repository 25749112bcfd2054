package main

import (
	"math"
	"sort"
)

// summary is a sample set reduced to what the benchmark reports: the
// median, the quartiles as Python's statistics.quantiles(n=4) gives
// them, and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{N: len(xs), Median: q2, Q1: q1, Q3: q3}
}

// quartiles returns the three cut points of xs with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so spreads computed
// here and by a script over the same values agree. A single sample is its
// own quartiles; an empty set yields NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n, m := len(d), len(d)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// pooled summarises samples taken on several corpora: each corpus's
// median and quartiles, averaged over the corpora that have samples, and
// the total sample count. A run's last round may sample only some of
// its corpora, and a median over the pooled samples would then lean
// toward those; the mean of per-corpus medians weighs every corpus the
// same.
func pooled(groups [][]float64) summary {
	var s summary
	k := 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(g)
		s.N += len(g)
		s.Q1, s.Median, s.Q3 = s.Q1+q1, s.Median+q2, s.Q3+q3
		k++
	}
	if k == 0 {
		return summarize(nil)
	}
	s.Q1, s.Median, s.Q3 = s.Q1/float64(k), s.Median/float64(k), s.Q3/float64(k)
	return s
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty set: per-call latency tails are reported as the
// value of an actual call, never an interpolation between two.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	return d[min(max(rank, 1), len(d))-1]
}
