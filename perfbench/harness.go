package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maxoid/internal/core"
	"maxoid/internal/health"
	mreg "maxoid/internal/metrics"
	"maxoid/internal/mount"
	"maxoid/internal/sqldb"
	"maxoid/internal/unionfs"
)

// class marks which latency sets an operation's sample joins besides
// the set of all operations.
type class uint8

const (
	clsInit  class = 1 << iota // issued by an initiator
	clsDeleg                   // issued by a delegate
	clsRead                    // reads state
	clsWrite                   // writes state
)

// sliceLen is the granularity of a phase's time series: throughput,
// the interference from outside the process, and the choice of the
// slices the metrics are computed over.
const sliceLen = 100 * time.Millisecond

// clientRec is one client's record of one phase. Only its own
// goroutine writes it; the driver reads it after the phase ends.
type clientRec struct {
	all, init, deleg, read, write series // latency samples, ns
	lag                           series // harness time between operations, ns
	// cur is the slice in which the current operation started; all of
	// an operation's samples are counted in it.
	cur int

	attempted, failed int64
	queries, rows     int64 // provider reads issued and rows they returned
	respBytes         int64 // gateway response bytes of those reads
	writes, userBytes int64 // acknowledged mutations and their payload bytes
	firstErr          error
}

// add records a latency sample in the sets cls names.
func (r *clientRec) add(cls class, d int64) {
	if cls&clsInit != 0 {
		r.init.add(d, r.cur)
	}
	if cls&clsDeleg != 0 {
		r.deleg.add(d, r.cur)
	}
	if cls&clsRead != 0 {
		r.read.add(d, r.cur)
	}
	if cls&clsWrite != 0 {
		r.write.add(d, r.cur)
	}
}

// finish records the end of one operation: its sample and class
// samples.
func (r *clientRec) finish(cls class, d int64, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		d = failedSample
	}
	r.all.add(d, r.cur)
	r.add(cls, d)
}

// pctx is what a client's step sees of the phase it runs in.
type pctx struct {
	rec     *clientRec
	tr      *tracer // nil when the phase is not traced
	layered bool    // re-issue each operation at every layer below its entry
	op      int64   // operation id, unique in the run
	root    int32   // the operation's root span
	// done, when set, is when the operation's call into the system
	// returned (nowNS); checking the result after it is harness time.
	done int64
}

// client is one load generator: it owns its contexts and its seeded
// operation stream.
type client interface {
	step(p *pctx) (class, error)
}

// instance is one set-up workload.
type instance struct {
	sys     *core.System
	clients []client
	// verify checks the workload's outputs after the timed window.
	verify func() error
	// teardown runs timed clean-up calls after verification.
	teardown func(tr *tracer) error
	// logBytes reports the bytes appended to the durable log so far
	// (nil if volatile).
	logBytes func() int64
	// checkpoint compacts the durable store, with every client stopped
	// (nil if volatile).
	checkpoint func() error
	// close releases everything the set-up built.
	close func() error
}

// phase is one measured stretch of a run, a whole number of slices.
type phase struct {
	recs    []*clientRec
	tracers []*tracer
	dur     time.Duration
	// load is what each slice saw of the machine (load.go).
	load []sliceLoad
}

func (ph *phase) ops() int64 {
	var n int64
	for _, r := range ph.recs {
		n += r.attempted - r.failed
	}
	return n
}

func (ph *phase) opsPerSec() float64 { return float64(ph.ops()) / ph.dur.Seconds() }

func (ph *phase) sum(f func(r *clientRec) int64) int64 {
	var n int64
	for _, r := range ph.recs {
		n += f(r)
	}
	return n
}

// samples returns one sample series of every client, in completion
// order, over the slices sel marks (every slice when sel is nil).
func (ph *phase) samples(f func(r *clientRec) *series, sel []bool) [][]int64 {
	parts := make([][]int64, len(ph.recs))
	for i, r := range ph.recs {
		if sel == nil {
			parts[i] = f(r).s
		} else {
			parts[i] = f(r).in(sel)
		}
	}
	return parts
}

// sliceOps is the number of operations started in each slice.
func (ph *phase) sliceOps() []int64 {
	n := make([]int64, len(ph.load))
	for _, r := range ph.recs {
		for i, c := range r.all.per {
			n[i] += int64(c)
		}
	}
	return n
}

// loadSum adds f over the slices sel marks (every slice when sel is
// nil).
func (ph *phase) loadSum(sel []bool, f func(l sliceLoad) float64) float64 {
	t := 0.0
	for i, l := range ph.load {
		if sel == nil || sel[i] {
			t += f(l)
		}
	}
	return t
}

// rate is the throughput over the slices sel marks.
func (ph *phase) rate(sel []bool) float64 {
	var ops int64
	k := 0
	for i, c := range ph.sliceOps() {
		if sel[i] {
			ops += c
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return float64(ops) / (float64(k) * sliceLen.Seconds())
}

// halves splits the slices sel marks, in time order, into a first and
// a second half. For each it returns the throughput, as the upper
// quartile of the per-slice rates (which a slowdown from outside load
// lowers less than it lowers the median, while a system that slows as
// it runs lowers it all the same), and the process's CPU time per
// operation, which outside load hardly moves.
func (ph *phase) halves(sel []bool) (rate, cpu [2]float64) {
	ops := ph.sliceOps()
	var idx []int
	for i, k := range sel {
		if k {
			idx = append(idx, i)
		}
	}
	for h, part := range [][]int{idx[:len(idx)/2], idx[len(idx)/2:]} {
		var rates []float64
		var n int64
		own := 0.0
		for _, i := range part {
			rates = append(rates, float64(ops[i])/sliceLen.Seconds())
			n += ops[i]
			own += ph.load[i].own
		}
		rate[h] = upperQuartile(rates)
		cpu[h] = ratio(own, float64(n))
	}
	return rate, cpu
}

func upperQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(3*len(s))/4]
}

// perSecond is the phase's throughput in each whole second.
func (ph *phase) perSecond() []float64 {
	per := int(time.Second / sliceLen)
	ops := ph.sliceOps()
	var out []float64
	for i := 0; (i+1)*per <= len(ops); i++ {
		n := int64(0)
		for _, c := range ops[i*per : (i+1)*per] {
			n += c
		}
		out = append(out, float64(n))
	}
	return out
}

// newPhase makes the records of a phase of at most d, cut to whole
// slices (at least one).
func newPhase(n int, d time.Duration, traced bool, epoch time.Time) *phase {
	slices := max(1, int(d/sliceLen))
	ph := &phase{recs: make([]*clientRec, n), tracers: make([]*tracer, n),
		dur: time.Duration(slices) * sliceLen, load: make([]sliceLoad, slices)}
	for i := range ph.recs {
		r := &clientRec{}
		for _, x := range r.series() {
			x.per = make([]int32, slices)
		}
		ph.recs[i] = r
		if traced {
			ph.tracers[i] = newTracer(epoch)
		}
	}
	return ph
}

func (r *clientRec) series() []*series {
	return []*series{&r.all, &r.init, &r.deleg, &r.read, &r.write, &r.lag}
}

// truncate cuts the phase to its first n slices, in which every one of
// its operations started.
func (ph *phase) truncate(n int) {
	ph.load = ph.load[:n]
	ph.dur = time.Duration(n) * sliceLen
	for _, r := range ph.recs {
		for _, x := range r.series() {
			x.per = x.per[:n]
		}
	}
}

// opID numbers operations uniquely across clients and phases.
func opID(phaseNo, c int, k int64) int64 { return int64(phaseNo)<<48 | int64(c)<<40 | k }

// runClosed drives every client in a closed loop for up to d, in whole
// slices: each client issues its next operation as soon as the
// previous one returns. When limit > 0, the phase ends with the slice
// in which the clients complete their limit-th operation. The lag
// sample is the harness time between two operations of a client.
func runClosed(inst *instance, phaseNo int, d time.Duration, limit int64, traced, layered bool, epoch time.Time) *phase {
	ph := newPhase(len(inst.clients), d, traced, epoch)
	slices := len(ph.load)
	var end, done atomic.Int64 // end: ns from start; done: operations completed
	end.Store(int64(ph.dur))
	start := time.Now()
	loadDone := sampleLoad(ph.load, start, &end)
	var wg sync.WaitGroup
	for c := range inst.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, rec, tr := inst.clients[c], ph.recs[c], ph.tracers[c]
			prev := start
			for k := int64(0); ; k++ {
				t0 := time.Now()
				at := t0.Sub(start)
				if int64(at) >= end.Load() {
					return
				}
				rec.cur = min(int(at/sliceLen), slices-1)
				rec.lag.add(int64(t0.Sub(prev)), rec.cur)
				p := pctx{rec: rec, tr: tr, layered: layered, op: opID(phaseNo, c, k)}
				if tr != nil {
					p.root = tr.begin(spanOp, -1, p.op)
				}
				t0ns := nowNS()
				cls, err := cl.step(&p)
				tr.end(p.root)
				prev = time.Now()
				d := int64(prev.Sub(t0))
				if p.done != 0 {
					d = p.done - t0ns
				}
				rec.finish(cls, d, err)
				if limit > 0 && done.Add(1) == limit {
					// No operation starts after the slice now running.
					if e := int64(prev.Sub(start)/sliceLen+1) * int64(sliceLen); e < end.Load() {
						end.Store(e)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	<-loadDone
	ph.truncate(int(end.Load() / int64(sliceLen)))
	return ph
}

// checkpointEvery is the longest stretch a durable instance runs
// without a checkpoint: its log is kept in memory. It is a whole
// number of sliceLen, so that parts' throughput slices line up.
const checkpointEvery = 200 * time.Millisecond

// runWindow is runClosed for a measured phase. It runs until the
// phase holds d of clean chunks or has run for maxD, whichever comes
// first; with maxD = d it runs for d. It runs in parts of a chunk, so
// that it stops on a chunk boundary. A durable instance runs in parts of
// checkpointEvery and checkpoints its store after each, so that the log
// held in memory stays short; the checkpoints run between the parts,
// outside the phase. When atOps > 0, pause is called once with the
// operations so far, every client stopped and outside the phase, after
// the slice (the part, if durable) in which the phase's atOps-th
// operation completes, or at its end if it has fewer.
func runWindow(inst *instance, phaseNo int, d, maxD time.Duration, traced, layered bool, epoch time.Time, atOps int64, pause func(ops int64)) (*phase, error) {
	part := chunkLen
	if inst.checkpoint != nil {
		part = checkpointEvery
	}
	var ph *phase
	done := func() bool {
		if ph == nil {
			return false
		}
		return ph.dur >= maxD || (ph.dur%chunkLen == 0 && time.Duration(cleanChunks(noiseOf(ph.load)))*chunkLen >= d)
	}
	for i := 0; !done(); i++ {
		left, ops := maxD, int64(0)
		if ph != nil {
			left, ops = maxD-ph.dur, ph.ops()
		}
		limit := int64(0)
		if atOps > 0 && inst.checkpoint == nil {
			limit = atOps - ops
		}
		if ph != nil {
			// After a stop at atOps, back onto part boundaries.
			left = min(left, part-ph.dur%part)
		}
		ph = mergePhases(ph, runClosed(inst, phaseNo<<8|i, min(left, part), limit, traced, layered, epoch))
		if inst.checkpoint != nil {
			if err := inst.checkpoint(); err != nil {
				return ph, fmt.Errorf("checkpoint: %w", err)
			}
		}
		if atOps > 0 && (ph.ops() >= atOps || done()) {
			pause(ph.ops())
			atOps = 0
		}
	}
	return ph, nil
}

// guardState is the size of everything a steady state must keep
// constant across the timed window.
type guardState struct {
	Rows           int64 // rows in every table of the three provider databases
	DeltaTables    int   // cowproxy delta tables
	COWViews       int   // cowproxy COW views
	Unions         int64 // live union mounts
	Branches       int64 // branches attached to them
	Namespaces     int64 // live mount namespaces
	Processes      int   // live kernel processes
	KilledConflict int   // AMS kill-on-conflict count
	Health         health.State
}

func guard(sys *core.System) guardState {
	g := guardState{
		Unions:         unionfs.Live(),
		Branches:       unionfs.LiveBranches(),
		Namespaces:     mount.Live(),
		Processes:      sys.Kernel.LiveProcesses(),
		KilledConflict: sys.AM.KilledForConflict(),
		Health:         sys.Health(),
	}
	for _, db := range providerDBs(sys) {
		for _, t := range db.TableNames() {
			n, _ := db.RowCount(t)
			g.Rows += int64(n)
		}
	}
	for _, p := range []proxied{sys.UserDict, sys.Downloads, sys.Media} {
		st := p.Proxy().Stats()
		g.DeltaTables += st.DeltaTables
		g.COWViews += st.COWViews
	}
	return g
}

func providerDBs(sys *core.System) []*sqldb.DB {
	return []*sqldb.DB{sys.UserDict.Proxy().DB(), sys.Downloads.Proxy().DB(), sys.Media.Proxy().DB()}
}

// checkGuards fails when the window did not leave the system as it
// found it.
func checkGuards(before, after guardState) error {
	if before.Health != health.Healthy || after.Health != health.Healthy {
		return fmt.Errorf("steady state: health %v -> %v, want healthy", before.Health, after.Health)
	}
	if before != after {
		return fmt.Errorf("steady state: %+v at the start of the window, %+v at its end", before, after)
	}
	return nil
}

// checkHalves fails when the two halves of a phase's kept slices
// differ by more than bound both in throughput and in CPU time per
// operation: a system that does more work per operation as it runs
// moves both, outside load on a shared host moves only the first.
func checkHalves(ph *phase, kept []bool, bound float64) error {
	rate, cpu := ph.halves(kept)
	differ := func(v [2]float64) bool {
		hi := max(v[0], v[1])
		return hi == 0 || abs(v[0]-v[1])/hi > bound
	}
	if differ(rate) && differ(cpu) {
		return fmt.Errorf("steady state: throughput %.0f/s in the first half, %.0f/s in the second; CPU time per op %.2f us, %.2f us (bound %.0f%%)",
			rate[0], rate[1], 1e3*cpu[0], 1e3*cpu[1], bound*100)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// dbCounters sums the planner counters of the provider databases.
func dbCounters(sys *core.System) sqldb.Stats {
	var s sqldb.Stats
	for _, db := range providerDBs(sys) {
		s = addStats(s, db.Stats())
	}
	return s
}

// walHist reads one wal.* histogram's count and sum (ns).
func walHist(reg *mreg.Registry, name string) (int64, int64) {
	if reg == nil {
		return 0, 0
	}
	s := reg.Histogram(name).Snapshot()
	return s.Count, int64(s.Sum)
}

// liveHeapMB is the live heap after a full collection. The sample
// series live outside the heap.
func liveHeapMB() float64 {
	// Two collections: the first leaves pooled objects in the pools'
	// victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// processStart anchors nowNS.
var processStart = time.Now()

// nowNS is a monotonic clock reading in nanoseconds.
func nowNS() int64 { return int64(time.Since(processStart)) }

// mergePhases appends phase b's records to a's (nil a starts anew).
func mergePhases(a, b *phase) *phase {
	if a == nil {
		return b
	}
	for i, r := range b.recs {
		ra := a.recs[i]
		from := r.series()
		for j, x := range ra.series() {
			x.appendSeries(from[j])
		}
		ra.attempted += r.attempted
		ra.failed += r.failed
		ra.queries += r.queries
		ra.rows += r.rows
		ra.respBytes += r.respBytes
		ra.writes += r.writes
		ra.userBytes += r.userBytes
		if ra.firstErr == nil {
			ra.firstErr = r.firstErr
		}
		if a.tracers[i] != nil {
			a.tracers[i].spans = append(a.tracers[i].spans, b.tracers[i].spans...)
		}
	}
	a.dur += b.dur
	a.load = append(a.load, b.load...)
	return a
}

// scaleStats multiplies every counter by k.
func scaleStats(a sqldb.Stats, k int64) sqldb.Stats {
	return sqldb.Stats{
		FlattenedQueries: k * a.FlattenedQueries, MaterializedViews: k * a.MaterializedViews,
		SeqScans: k * a.SeqScans, PKProbes: k * a.PKProbes, IndexProbes: k * a.IndexProbes,
		PlanCacheHits: k * a.PlanCacheHits, PlanCacheMisses: k * a.PlanCacheMisses,
	}
}

func addStats(a, b sqldb.Stats) sqldb.Stats {
	return sqldb.Stats{
		FlattenedQueries: a.FlattenedQueries + b.FlattenedQueries, MaterializedViews: a.MaterializedViews + b.MaterializedViews,
		SeqScans: a.SeqScans + b.SeqScans, PKProbes: a.PKProbes + b.PKProbes, IndexProbes: a.IndexProbes + b.IndexProbes,
		PlanCacheHits: a.PlanCacheHits + b.PlanCacheHits, PlanCacheMisses: a.PlanCacheMisses + b.PlanCacheMisses,
	}
}
