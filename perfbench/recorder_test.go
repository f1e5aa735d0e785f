package main

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// reference computes the nearest-rank quantile by brute force over a
// sorted copy: the smallest value v with |{x <= v}| >= q*n.
func reference(samples []int64, q float64) (int64, int) {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	for i, v := range s {
		if float64(i+1) >= q*float64(n) {
			return v, n - (i + 1)
		}
	}
	return s[n-1], 0
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		var parts [][]int64
		var all []int64
		for len(all) < n {
			k := 1 + rng.Intn(n-len(all))
			p := make([]int64, k)
			for i := range p {
				// Heavy-tailed, with ties, as latencies are.
				p[i] = int64(rng.ExpFloat64()*1000) + int64(rng.Intn(3))
			}
			parts = append(parts, p)
			all = append(all, p...)
		}
		d := newDist(parts...)
		if d.count() != n {
			t.Fatalf("count = %d, want %d", d.count(), n)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			want, beyond := reference(all, q)
			got, ok := d.quantile(q)
			if ok != (beyond >= minBeyond) {
				t.Fatalf("n=%d q=%v: ok=%v with %d samples beyond", n, q, ok, beyond)
			}
			if ok && got != time.Duration(want) {
				t.Fatalf("n=%d q=%v: got %d, want %d", n, q, got, want)
			}
		}
	}
}

func TestQuantileSmallSets(t *testing.T) {
	d := newDist([]int64{5, 1, 3})
	if _, ok := d.quantile(0.5); ok {
		t.Fatal("median of 3 samples reported with fewer than 10 beyond it")
	}
	var s []int64
	for i := int64(1); i <= 20; i++ {
		s = append(s, i)
	}
	d = newDist(s)
	if got, ok := d.quantile(0.5); !ok || got != 10 {
		t.Fatalf("median of 1..20 = %d, %v; want 10, true", got, ok)
	}
	if _, ok := d.quantile(0.99); ok {
		t.Fatal("p99 of 20 samples reported")
	}
	if _, ok := newDist().quantile(0.5); ok {
		t.Fatal("quantile of an empty set reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestWindowQuantile(t *testing.T) {
	// subWindows parts of 1..1000 each: every part's p99 is 990, and
	// so is the window's.
	var a, b []int64
	for part := 0; part < subWindows; part++ {
		for i := int64(1); i <= 1000; i++ {
			if i%2 == 0 {
				a = append(a, i)
			} else {
				b = append(b, i)
			}
		}
	}
	got, n, ok := windowQuantile([][]int64{a, b}, 0.99)
	if !ok || n != 1000*subWindows || got != 990 {
		t.Fatalf("p99 = %d, n=%d, ok=%v; want 990, %d, true", got, n, ok, 1000*subWindows)
	}
	parts := partQuantiles([][]int64{a, b}, 0.99)
	if len(parts) != subWindows {
		t.Fatalf("%d parts, want %d", len(parts), subWindows)
	}
	// A burst of slow samples in one part moves the window's p99 and
	// that part's, and no other part's.
	for i := 0; i < len(a)/subWindows; i++ {
		a[i] = 1_000_000
	}
	if got, _, _ := windowQuantile([][]int64{a, b}, 0.99); got != 1_000_000 {
		t.Fatalf("p99 with a burst in one part = %d, want 1000000", got)
	}
	parts = partQuantiles([][]int64{a, b}, 0.99)
	if parts[0] != 1000 || parts[1] != 0.99 {
		t.Fatalf("per-part p99 with a burst in part 0: %v", parts)
	}
	// Too few samples beyond the quantile.
	if _, _, ok := windowQuantile([][]int64{a[:500]}, 0.99); ok {
		t.Fatal("p99 of 500 samples reported")
	}
	if parts := partQuantiles([][]int64{a[:500]}, 0.99); parts != nil {
		t.Fatalf("per-part p99 of 500 samples: %v", parts)
	}
}

func TestPartQuantilesUnevenClients(t *testing.T) {
	// 9001 samples split unevenly across two clients: nine parts would
	// leave one a sample short, so fewer parts are used, never none.
	a := make([]int64, 4999)
	b := make([]int64, 4002)
	for i := range a {
		a[i] = int64(i)
	}
	for i := range b {
		b[i] = int64(i)
	}
	if parts := partQuantiles([][]int64{a, b}, 0.99); len(parts) == 0 || len(parts) >= 9 {
		t.Fatalf("p99 of 9001 samples in %d parts", len(parts))
	}
}
