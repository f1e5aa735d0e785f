package main

import (
	"syscall"
	"unsafe"
)

// seriesCap is how many samples one series holds outside the heap: far
// more than one client records in a run.
const seriesCap = 1 << 22

// series is an append-only sample buffer whose storage is an anonymous
// memory mapping outside the Go heap. Recording samples must not grow
// the heap: the system under measurement shares it, and a heap that
// grows through the window would change the collector's pacing, and
// with it the latencies, as the window goes on. Pages are committed
// only as they are written; mappings last until the process exits. If
// the mapping fails or fills, the series continues on the heap.
//
// per counts the samples of each sliceLen of the phase, in order, so
// that the samples of any set of slices can be picked out.
type series struct {
	s   []int64
	per []int32
}

// add records sample v of an operation that started in the phase's
// slice i.
func (x *series) add(v int64, i int) {
	if len(x.s) == cap(x.s) {
		x.grow()
	}
	x.s = append(x.s, v)
	for len(x.per) <= i {
		x.per = append(x.per, 0)
	}
	x.per[i]++
}

// in returns the samples of the slices sel marks.
func (x *series) in(sel []bool) []int64 {
	var out []int64
	k := 0
	for i, n := range x.per {
		if i < len(sel) && sel[i] {
			out = append(out, x.s[k:k+int(n)]...)
		}
		k += int(n)
	}
	return out
}

// appendSeries appends b's samples and slices to x's.
func (x *series) appendSeries(b *series) {
	for _, v := range b.s {
		if len(x.s) == cap(x.s) {
			x.grow()
		}
		x.s = append(x.s, v)
	}
	x.per = append(x.per, b.per...)
}

func (x *series) grow() {
	if x.s == nil {
		mem, err := syscall.Mmap(-1, 0, seriesCap*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			x.s = unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), seriesCap)[:0]
			return
		}
	}
	s := make([]int64, len(x.s), 2*cap(x.s)+1024)
	copy(s, x.s)
	x.s = s
}
