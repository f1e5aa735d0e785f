package main

import (
	"math"
	"testing"
	"time"
)

func TestLoadBetween(t *testing.T) {
	a := cpuTimes{busy: time.Second, steal: 0, own: 500 * time.Millisecond}
	// 150 ms busy, 100 ms of it this process's, 20 ms stolen.
	b := cpuTimes{busy: 1150 * time.Millisecond, steal: 20 * time.Millisecond, own: 600 * time.Millisecond}
	if got := loadBetween(a, b); got != (sliceLoad{noise: 70, stolen: 20, own: 100}) {
		t.Fatalf("load = %+v, want 70 ms noise, 20 stolen, 100 own", got)
	}
	// Own time counted finer than the machine's ticks: no negative
	// foreign time.
	b = cpuTimes{busy: 1100 * time.Millisecond, own: 608 * time.Millisecond}
	if got := loadBetween(a, b); got.noise != 0 {
		t.Fatalf("noise = %v ms, want 0", got.noise)
	}
}

func TestQuietChunks(t *testing.T) {
	per := int(chunkLen / sliceLen)
	// Four whole chunks reading 5, 40, 12 and 20 ms, and half a chunk.
	var noise []float64
	for _, x := range []float64{5, 40, 12, 20} {
		for i := 0; i < per; i++ {
			noise = append(noise, x)
		}
	}
	noise[per] = 0 // one quiet slice does not make a busy chunk clean
	noise = append(noise, make([]float64, per/2)...)
	if got := chunkNoise(noise); len(got) != 4 || got[0] != 5 || got[1] != 40 {
		t.Fatalf("chunk medians %v", got)
	}
	if n := cleanChunks(noise); n != 2 {
		t.Fatalf("%d clean chunks, want 2", n)
	}
	sel := quietChunks(noise, 3)
	for i, want := range []bool{true, false, true, true, false} {
		if i*per < len(sel) && sel[i*per] != want {
			t.Fatalf("chunk %d kept = %v, want %v", i, sel[i*per], want)
		}
	}
	if n := countKept(sel); n != 3*per {
		t.Fatalf("%d slices kept, want %d", n, 3*per)
	}
	if n := countKept(quietChunks(noise, 10)); n != 4*per {
		t.Fatalf("%d slices kept when every chunk is wanted, want %d", n, 4*per)
	}
}

func TestSeriesSlices(t *testing.T) {
	var x series
	for i, sl := range []int{0, 0, 1, 3, 3, 3} {
		x.add(int64(10*i), sl)
	}
	if got := x.in([]bool{true, false, true, true}); !equalInts(got, []int64{0, 10, 30, 40, 50}) {
		t.Fatalf("slices 0, 2, 3: %v", got)
	}
	if got := x.in([]bool{false, true}); !equalInts(got, []int64{20}) {
		t.Fatalf("slice 1: %v", got)
	}
	var y series
	y.add(7, 1)
	x.appendSeries(&y)
	if len(x.per) != 6 || x.per[5] != 1 {
		t.Fatalf("appended per-slice counts %v", x.per)
	}
	if got := x.in([]bool{false, false, false, false, false, true}); !equalInts(got, []int64{7}) {
		t.Fatalf("appended slice: %v", got)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPhaseRateOverKeptSlices(t *testing.T) {
	ph := newPhase(2, 4*sliceLen, false, time.Now())
	for i, n := range []int{100, 10, 100, 100} {
		for c := 0; c < 2; c++ {
			for k := 0; k < n; k++ {
				ph.recs[c].cur = i
				ph.recs[c].finish(clsRead, 1, nil)
			}
		}
	}
	got := ph.rate([]bool{true, false, true, true})
	if want := 200 / sliceLen.Seconds(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("rate = %v, want %v", got, want)
	}
	if n := len(ph.samples(func(r *clientRec) *series { return &r.read }, []bool{false, true})[1]); n != 10 {
		t.Fatalf("%d read samples of client 1 in slice 1, want 10", n)
	}
}

func TestCheckHalves(t *testing.T) {
	// Four slices: the second half completes half as many operations.
	mk := func(own [4]float64) *phase {
		ph := newPhase(1, 4*sliceLen, false, time.Now())
		for i, n := range []int{100, 100, 50, 50} {
			ph.recs[0].cur = i
			for k := 0; k < n; k++ {
				ph.recs[0].finish(clsRead, 1, nil)
			}
			ph.load[i].own = own[i]
		}
		return ph
	}
	all := []bool{true, true, true, true}
	// Outside load: fewer operations, the same CPU time per operation.
	if err := checkHalves(mk([4]float64{100, 100, 50, 50}), all, 0.25); err != nil {
		t.Fatalf("slowdown from outside load failed the check: %v", err)
	}
	// A system that works harder per operation as it runs.
	if err := checkHalves(mk([4]float64{100, 100, 100, 100}), all, 0.25); err == nil {
		t.Fatal("a system slowing as it runs passed the check")
	}
}

func countKept(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}
