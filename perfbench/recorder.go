package main

import (
	"math"
	"sort"
	"time"
)

// failedSample is recorded in place of a latency for an operation that
// failed or was refused, so it counts as missing any latency limit.
const failedSample = int64(math.MaxInt64)

// minBeyond is how many samples must lie beyond a percentile for the
// percentile to be reported.
const minBeyond = 10

// dist is an exact latency distribution over raw nanosecond samples.
// Quantiles come from the sorted samples themselves, never from bucket
// interpolation, so two runs agree only when their samples do.
type dist struct{ s []int64 }

// newDist merges sample sets into one sorted distribution.
func newDist(parts ...[]int64) dist {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	s := make([]int64, 0, n)
	for _, p := range parts {
		s = append(s, p...)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return dist{s: s}
}

// count is the number of samples.
func (d dist) count() int { return len(d.s) }

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least q of all samples at or below it. ok is false when fewer than
// minBeyond samples lie beyond that rank, too few to report it.
func (d dist) quantile(q float64) (time.Duration, bool) {
	n := len(d.s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return time.Duration(d.s[rank-1]), true
}

// median is the middle value of a small set of measurements (mean of
// the two middle values for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// subWindows is how many consecutive parts of a window the per-part
// diagnostics split it into.
const subWindows = 15

// windowQuantile is the exact q-quantile of all of a window's samples,
// given per client, and the sample count; ok is false when too few
// samples lie beyond it.
func windowQuantile(perClient [][]int64, q float64) (v time.Duration, n int, ok bool) {
	d := newDist(perClient...)
	v, ok = d.quantile(q)
	return v, d.count(), ok
}

// partQuantiles is the exact q-quantile, in microseconds, of each of
// up to subWindows consecutive parts of a window whose samples are
// given per client in completion order: as many parts as keep
// minBeyond samples beyond the quantile in every part. It shows how
// the quantile moved through the window.
func partQuantiles(perClient [][]int64, q float64) []float64 {
	n := 0
	for _, s := range perClient {
		n += len(s)
	}
	k := n / int(math.Ceil(minBeyond/(1-q)))
	if k > subWindows {
		k = subWindows
	}
	// Parts are cut per client, so one can fall a few samples short of
	// the even share; use fewer parts until every part qualifies.
	for ; k >= 1; k-- {
		qs := make([]float64, 0, k)
		for j := 0; j < k; j++ {
			part := make([][]int64, len(perClient))
			for c, s := range perClient {
				part[c] = s[len(s)*j/k : len(s)*(j+1)/k]
			}
			v, ok := newDist(part...).quantile(q)
			if !ok {
				break
			}
			qs = append(qs, float64(v)/1e3)
		}
		if len(qs) == k {
			return qs
		}
	}
	return nil
}
