package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark runs on a machine it shares: the host can take the
// machine's CPUs away (steal time) and other processes can use them.
// Either stretches the latencies and lowers the throughput of whatever
// slices of a window it falls in. A phase records, per slice, how much
// CPU time was taken from it that way, and the metrics are computed
// over its quietest chunks (quietChunks).

// clockTick is the unit of the counters in /proc/stat (USER_HZ).
const clockTick = 10 * time.Millisecond

// chunkLen is the stretch of a window that is kept or dropped as a
// whole: long enough that its interference reads clearly through the
// counters' resolution, short enough to drop a passing burst of load.
const chunkLen = time.Second

// cleanLimit is the interference, in ms per slice (the median over a
// chunk's slices), up to which a chunk counts as clean. On an idle
// 2-CPU host the kernel's own work reads 4 to 10 ms; while other
// machines load the host it reads 20 to 30 ms, and latency tails
// double.
const cleanLimit = 15.0

// cpuTimes are cumulative CPU times: busy and stolen time of the whole
// machine, and this process's own CPU time.
type cpuTimes struct{ busy, steal, own time.Duration }

// readCPU reads the CPU times; ok is false where /proc/stat is missing.
func readCPU() (c cpuTimes, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return c, false
	}
	tick := func(i int) time.Duration {
		v, _ := strconv.ParseInt(string(f[i]), 10, 64)
		return time.Duration(v) * clockTick
	}
	// user nice system idle iowait irq softirq steal
	c.busy = tick(1) + tick(2) + tick(3) + tick(6) + tick(7)
	c.steal = tick(8)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, false
	}
	c.own = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return c, true
}

// sliceLoad is what one slice of a phase saw of the machine, in ms of
// CPU time.
type sliceLoad struct {
	noise  float64 // taken by others: stolen plus other processes' busy time
	stolen float64 // stolen by the host
	own    float64 // used by this process
}

// loadBetween is the load between two readings.
func loadBetween(a, b cpuTimes) sliceLoad {
	foreign := (b.busy - a.busy) - (b.own - a.own)
	if foreign < 0 {
		foreign = 0
	}
	ms := float64(time.Millisecond)
	return sliceLoad{
		noise:  float64(b.steal-a.steal+foreign) / ms,
		stolen: float64(b.steal-a.steal) / ms,
		own:    float64(b.own-a.own) / ms,
	}
}

// sampleLoad fills load[i] with the load of slice i of a phase that
// started at start, until the slice that ends at end (ns after start,
// read as it moves). The returned channel closes when it is done.
// Where the counters cannot be read every slice reads 0.
func sampleLoad(load []sliceLoad, start time.Time, end *atomic.Int64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev, ok := readCPU()
		if !ok {
			return
		}
		for i := range load {
			tick := time.Duration(i+1) * sliceLen
			if int64(tick) > end.Load() {
				return
			}
			time.Sleep(time.Until(start.Add(tick)))
			cur, _ := readCPU()
			load[i] = loadBetween(prev, cur)
			prev = cur
		}
	}()
	return done
}

// noiseOf is the noise of each slice.
func noiseOf(load []sliceLoad) []float64 {
	v := make([]float64, len(load))
	for i, l := range load {
		v[i] = l.noise
	}
	return v
}

// chunkNoise is the median interference of each whole chunk of a
// phase's slices.
func chunkNoise(noise []float64) []float64 {
	per := int(chunkLen / sliceLen)
	var out []float64
	for i := 0; (i+1)*per <= len(noise); i++ {
		out = append(out, median(noise[i*per:(i+1)*per]))
	}
	return out
}

// cleanChunks is the number of whole chunks within cleanLimit.
func cleanChunks(noise []float64) int {
	n := 0
	for _, x := range chunkNoise(noise) {
		if x <= cleanLimit {
			n++
		}
	}
	return n
}

// quietChunks marks the slices a phase's metrics are computed over: the
// slices of its want quietest whole chunks (the earlier of two that
// read the same), or of every chunk if it has fewer.
func quietChunks(noise []float64, want int) []bool {
	cn := chunkNoise(noise)
	order := make([]int, len(cn))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cn[order[a]] < cn[order[b]] })
	per := int(chunkLen / sliceLen)
	sel := make([]bool, len(noise))
	for _, c := range order[:min(want, len(order))] {
		for i := c * per; i < (c+1)*per; i++ {
			sel[i] = true
		}
	}
	return sel
}
