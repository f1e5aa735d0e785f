package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	mreg "maxoid/internal/metrics"
	"maxoid/internal/sqldb"
)

// runTraced is the traced run. Its window has three kinds of
// closed-loop phase:
//
//	U  untraced, for the tracing overhead baseline
//	T  spans around each operation's entry call; counter deltas
//	L  each operation re-issued at every layer below its entry, for
//	   layer self times
//
// It reports every per-layer metric and writes its spans out.
func runTraced(cfg *config, setup setupFunc, w io.Writer) (*outcome, error) {
	epoch := time.Now()
	reg := mreg.NewRegistry()
	setupTr := newTracer(epoch)
	inst, err := setup(cfg, reg, setupTr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	runtime.GC() // collect set-up garbage before the window, not in it
	window := time.Duration(cfg.seconds) * time.Second
	before := guard(inst.sys)
	share := []float64{0.3, 0.3, 0.4}
	part := func(i int) time.Duration { return time.Duration(float64(window) * share[i] / 2) }
	// U and T alternate in two rounds each, so that drift over the
	// window does not read as tracing overhead. Counter deltas cover T.
	var werr error
	run := func(no int, d time.Duration, traced, layered bool) *phase {
		ph, err := runWindow(inst, no, d, d, traced, layered, epoch, 0, nil)
		if werr == nil {
			werr = err
		}
		return ph
	}
	var u, t *phase
	var ct counters
	for round := 0; round < 2; round++ {
		u = mergePhases(u, run(1+2*round, part(0), false, false))
		c0 := readCounters(inst, reg)
		t = mergePhases(t, run(2+2*round, part(1), true, false))
		ct = ct.add(readCounters(inst, reg).sub(c0))
	}
	l := run(5, time.Duration(float64(window)*share[2]), true, true)
	after := guard(inst.sys)

	out := &outcome{metrics: map[string]metric{}}
	phases := []*phase{u, t, l}
	out.count(phases...)
	if err := firstFailure(phases...); err != nil {
		return out, err
	}
	if werr != nil {
		return out, werr
	}
	if err := checkGuards(before, after); err != nil {
		return out, err
	}
	if err := inst.verify(); err != nil {
		return out, fmt.Errorf("verify: %w", err)
	}
	downTr := newTracer(epoch)
	if err := inst.teardown(downTr); err != nil {
		return out, fmt.Errorf("teardown: %w", err)
	}

	header := fmt.Sprintf("workload=%s seed=%d seconds=%d commit=%s", cfg.workload, cfg.seed, cfg.seconds, cfg.commit)
	all := append(append([]*tracer{setupTr}, t.tracers...), l.tracers...)
	all = append(all, downTr)
	if name, err := writeSpans(cfg.spansDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed), header, all); err != nil {
		return out, fmt.Errorf("write spans: %w", err)
	} else {
		fmt.Fprintf(w, "# spans: %s\n", name)
	}

	inPhase := collectSpans(append(append([]*tracer{}, t.tracers...), l.tracers...))
	layered := collectSpans(l.tracers)
	setupSpans := collectSpans([]*tracer{setupTr})
	down := collectSpans([]*tracer{downTr})
	rootP50, _ := collectSpans(t.tracers).medianUS(spanOp)
	fmt.Fprintf(w, "# traced op p50 %.2f us; untraced %.0f ops/s, traced %.0f ops/s\n", rootP50, u.opsPerSec(), t.opsPerSec())

	us := func(name string, v float64, n int, where string) {
		out.set(w, name, v, "us", fmt.Sprintf("n=%d, %s", n, where))
	}
	// shareOf reports a layer's self time as a share of the traced
	// operation's median latency: 0 when the layer is not on the path
	// of the measured operations.
	shareOf := func(name string, v float64, n int, where string) {
		fmt.Fprintf(w, "# %-30s %14.4f us (n=%d, %s)\n", name+"_us", v, n, where)
		s := 0.0
		if n > 0 && where != "set-up" && where != "teardown" && rootP50 > 0 {
			s = v / rootP50
		}
		out.set(w, name+"_share", s, "ratio", "of the traced op p50")
	}

	v, n := layered.selfUS(spanGateway, spanBinder)
	shareOf("gateway.self", v, n, "gateway minus resolver")
	v, n = layered.selfUS(spanBinder, spanProvider)
	us("binder.self_us", v, n, "resolver minus provider")
	v, n = layered.selfUS(spanProvider, spanCowproxy)
	us("provider.self_us", v, n, "provider minus conn")
	v, n = layered.selfUS(spanCowproxy, spanSqldbQuery, spanSqldbExec)
	us("cowproxy.self_us", v, n, "conn minus db")
	v, n = layered.medianUS(spanSqldbQuery)
	us("sqldb.query_us", v, n, "direct DB.Query")
	v, n = layered.medianUS(spanSqldbExec)
	us("sqldb.exec_us", v, n, "direct DB.Exec")

	src, where := inPhase, "timed"
	if len(src.byName[spanFirstWrite]) == 0 {
		src, where = setupSpans, "set-up"
	}
	v, n = src.selfUS(spanFirstWrite, spanLaterWrite)
	us("cowproxy.synth_us", v, n, "first delegate write minus a later one, "+where)

	v, n = layered.selfUS(spanUnionfs, spanVFS)
	shareOf("unionfs.self", v, n, "namespace op minus disk op")
	v, n = layered.medianUS(spanVFS)
	shareOf("vfs.op", v, n, "direct disk op")
	src, where = inPhase, "timed"
	if len(src.byName[spanFirstAppend]) == 0 {
		src, where = setupSpans, "set-up"
	}
	v, n = src.selfUS(spanFirstAppend, spanLaterAppend)
	shareOf("unionfs.copyup", v, n, where)
	v, n = inPhase.selfUS(spanStart, spanOnStart)
	shareOf("ams.launch", v, n, "start minus on-start")

	src, where = inPhase, "timed"
	if len(src.byName[spanClearVol]) == 0 {
		src, where = down, "teardown"
	}
	v, n = src.medianUS(spanClearVol)
	us("ams.clearvol_us", v, n, where)
	v, n = src.medianUS(spanClearPriv)
	us("ams.clearpriv_us", v, n, where)

	writes := t.sum(func(r *clientRec) int64 { return r.writes })
	where = "wal.append mean over T"
	if ct.appends == 0 {
		where = "absent"
	}
	shareOf("wal.append", ratio(float64(ct.appendNS), float64(ct.appends))/1e3, int(ct.appends), where)
	where = "wal.fsync mean over T"
	if ct.fsyncs == 0 {
		where = "absent"
	}
	shareOf("wal.fsync", ratio(float64(ct.fsyncNS), float64(ct.fsyncs))/1e3, int(ct.fsyncs), where)
	out.set(w, "wal.fsyncs_per_write", ratio(float64(ct.fsyncs), float64(writes)), "count", fmt.Sprintf("%d writes", writes))
	out.set(w, "wal.bytes_per_user_byte", ratio(float64(ct.storage), float64(t.sum(func(r *clientRec) int64 { return r.userBytes }))), "ratio", "log bytes over payload bytes")

	queries := float64(t.sum(func(r *clientRec) int64 { return r.queries }))
	out.set(w, "gateway.resp_bytes", ratio(float64(t.sum(func(r *clientRec) int64 { return r.respBytes })), queries), "bytes", "per read")
	out.set(w, "sqldb.seq_scans_per_query", ratio(float64(ct.db.SeqScans), queries), "count", fmt.Sprintf("%.0f reads", queries))
	out.set(w, "sqldb.pk_probes_per_query", ratio(float64(ct.db.PKProbes), queries), "count", "")
	out.set(w, "sqldb.index_probes_per_query", ratio(float64(ct.db.IndexProbes), queries), "count", "")
	out.set(w, "sqldb.rows_per_read", ratio(float64(t.sum(func(r *clientRec) int64 { return r.rows })), queries), "count", "")
	hits, misses := ct.db.PlanCacheHits, ct.db.PlanCacheMisses
	out.set(w, "sqldb.plan_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", fmt.Sprintf("%d hits, %d misses", hits, misses))
	fl, mat := ct.db.FlattenedQueries, ct.db.MaterializedViews
	out.set(w, "sqldb.flatten_ratio", ratio(float64(fl), float64(fl+mat)), "ratio", fmt.Sprintf("%d flattened, %d materialized", fl, mat))

	ops := float64(t.ops())
	out.set(w, "runtime.allocs_per_op", ratio(float64(ct.mallocs), ops), "count", "")
	out.set(w, "runtime.alloc_bytes_per_op", ratio(float64(ct.allocBytes), ops), "bytes", "")
	out.set(w, "runtime.gc_cpu_frac", ratio(ct.gcCPU, ct.totalCPU), "ratio", "")

	lv, ln, ok := windowQuantile(u.samples(func(r *clientRec) *series { return &r.lag }, nil), 0.99)
	if !ok {
		return out, fmt.Errorf("harness.gen_lag_us: %d samples, too few for p99", ln)
	}
	us("harness.gen_lag_us", float64(lv)/1e3, ln, "p99")
	out.set(w, "harness.trace_overhead", u.opsPerSec()/t.opsPerSec()-1, "ratio", "untraced over traced ops/s, minus 1")

	// Along the blocking path the layer self times telescope to the
	// entry span; print how closely their medians account for it.
	entry := spanBinder
	if len(layered.byName[spanGateway]) > 0 {
		entry = spanGateway
	}
	if e, n := layered.medianUS(entry); n > 0 {
		sum := 0.0
		for _, m := range []string{"binder.self_us", "provider.self_us", "cowproxy.self_us"} {
			sum += out.metrics[m].Value
		}
		if entry == spanGateway {
			g, _ := layered.selfUS(spanGateway, spanBinder)
			sum += g
		}
		q, _ := layered.selfUS(entry, spanSqldbQuery, spanSqldbExec)
		fmt.Fprintf(w, "# attribution: %s entry p50 %.2f us; layer self-time medians sum to %.2f us above the db (entry minus db p50 %.2f us)\n", entry, e, sum, q)
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters are the cumulative counters a traced run takes deltas of.
type counters struct {
	db                  sqldb.Stats
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	appends, appendNS   int64 // wal.append histogram
	fsyncs, fsyncNS     int64 // wal.fsync histogram
	storage             int64 // bytes appended to the durable log
}

func readCounters(inst *instance, reg *mreg.Registry) counters {
	var c counters
	c.db = dbCounters(inst.sys)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(m)
	c.gcCPU, c.totalCPU = m[0].Value.Float64(), m[1].Value.Float64()
	c.appends, c.appendNS = walHist(reg, "wal.append")
	c.fsyncs, c.fsyncNS = walHist(reg, "wal.fsync")
	if inst.logBytes != nil {
		c.storage = inst.logBytes()
	}
	return c
}

// sub is c minus b, field by field.
func (c counters) sub(b counters) counters {
	return counters{
		db:      addStats(c.db, scaleStats(b.db, -1)),
		mallocs: c.mallocs - b.mallocs, allocBytes: c.allocBytes - b.allocBytes,
		gcCPU: c.gcCPU - b.gcCPU, totalCPU: c.totalCPU - b.totalCPU,
		appends: c.appends - b.appends, appendNS: c.appendNS - b.appendNS,
		fsyncs: c.fsyncs - b.fsyncs, fsyncNS: c.fsyncNS - b.fsyncNS,
		storage: c.storage - b.storage,
	}
}

// add is c plus b, field by field.
func (c counters) add(b counters) counters {
	return counters{
		db:      addStats(c.db, b.db),
		mallocs: c.mallocs + b.mallocs, allocBytes: c.allocBytes + b.allocBytes,
		gcCPU: c.gcCPU + b.gcCPU, totalCPU: c.totalCPU + b.totalCPU,
		appends: c.appends + b.appends, appendNS: c.appendNS + b.appendNS,
		fsyncs: c.fsyncs + b.fsyncs, fsyncNS: c.fsyncNS + b.fsyncNS,
		storage: c.storage + b.storage,
	}
}
