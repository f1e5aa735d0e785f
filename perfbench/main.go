// Command perfbench is the repository's benchmark: one steady-state run
// of one named workload against a booted Maxoid system, with its
// outputs checked.
//
//	perfbench --workload device_steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures end-to-end metrics with tracing off. With
// --trace 1 it runs the same workload with spans at the layer
// boundaries the benchmark calls into and reports per-layer metrics.
// Human-readable lines come first; the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is nonzero when any correctness or steady-state check
// fails. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	mreg "maxoid/internal/metrics"
)

// A run times at least minSetups set-ups and goes on until they have
// taken setupBudget, up to maxSetups, so that a quick set-up is timed
// often enough for its median to hold still.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
	// runLimit stops a run that would outlive the benchmark's time
	// budget instead of letting it hang.
	runLimit = 170 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  int
	spansDir string
	commit   string
	clients  int
	opsBound float64 // the ops_per_s bound, held by the steady-state check
	heapAt   int64   // see workload
}

// setupFunc boots, seeds and warms a system for one workload. reg is
// the traced run's registry (nil otherwise); tr, when non-nil, records
// the set-up's own spans (first writes, copy-ups).
type setupFunc func(cfg *config, reg *mreg.Registry, tr *tracer) (*instance, error)

// workload is a named set-up and the number of clients of its closed
// loop, never more than the CPUs. device_steady and delegate_sessions
// run one client: their operations serialize, so a second client adds
// little throughput, and a host stall of whichever holds the lock
// stalls both, which made their latency tails swing between runs.
//
// heapAt is the operation of the window after which heap_mb is taken,
// about half a 10 s window on a 2-CPU host. A fixed count, not
// the end of the window, because memory that an operation leaves
// behind then adds up to the same amount in every run, however fast
// the run went.
type workload struct {
	setup   setupFunc
	clients int
	heapAt  int64
}

var workloads = map[string]workload{
	"device_steady":     {setupDevice, 1, 100_000},
	"delegate_sessions": {setupSessions, 1, 15_000},
	"gateway_fleet":     {setupGateway, 2, 30_000},
	"durable_ingest":    {setupDurable, 2, 300_000},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source revision, recorded with the result")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var err error
	if cfg.opsBound, err = opsBound(*benchFile); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg.clients = wl.clients
	cfg.heapAt = wl.heapAt
	if n := runtime.NumCPU(); n < cfg.clients {
		cfg.clients = n
	}

	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %s\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(stdout, "# machine: nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.commit)
	fmt.Fprintf(stdout, "# inputs: workload=%s seed=%d seconds=%d trace=%d clients=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, cfg.clients)

	var out *outcome
	if trace == 1 {
		out, err = runTraced(cfg, wl.setup, stdout)
	} else {
		out, err = runPlain(cfg, wl.setup, stdout)
	}
	if out == nil {
		out = &outcome{metrics: map[string]metric{}}
	}
	correct := err == nil
	if err != nil {
		fmt.Fprintf(stdout, "# FAILED: %v\n", err)
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	if out.attempted > 0 {
		fmt.Fprintf(stdout, "# error_rate %.6f (%d failed of %d attempted)\n",
			float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	}
	line, jerr := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// opsBound reads the bound of ops_per_s from the benchmark definition;
// the steady-state check holds throughput to it.
func opsBound(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range def.EndToEnd {
		if m.Name == "ops_per_s" && m.Bound > 0 {
			return m.Bound, nil
		}
	}
	return 0, fmt.Errorf("%s: no bound for ops_per_s", path)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
}

func (o *outcome) set(w io.Writer, name string, v float64, unit string, note string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(w, "%-32s %14.4f %s%s\n", name, v, unit, note)
}

func (o *outcome) count(phases ...*phase) {
	for _, ph := range phases {
		o.attempted += ph.sum(func(r *clientRec) int64 { return r.attempted })
		o.failed += ph.sum(func(r *clientRec) int64 { return r.failed })
	}
}

// firstFailure returns the first operation error of the phases.
func firstFailure(phases ...*phase) error {
	for _, ph := range phases {
		for _, r := range ph.recs {
			if r.firstErr != nil {
				return fmt.Errorf("operation failed: %w", r.firstErr)
			}
		}
	}
	return nil
}

// setupTimed sets the workload up as often as minSetups, maxSetups and
// setupBudget say, keeping the last instance, and returns the set-up
// times.
func setupTimed(cfg *config, setup setupFunc) (*instance, []float64, error) {
	var times []float64
	var spent float64
	for {
		runtime.GC()
		t0 := time.Now()
		inst, err := setup(cfg, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		spent += times[len(times)-1]
		if len(times) == maxSetups || (len(times) >= minSetups && spent >= setupBudget.Seconds()) {
			return inst, times, nil
		}
		if err := inst.close(); err != nil {
			return nil, nil, fmt.Errorf("setup: close: %w", err)
		}
	}
}

// runPlain is the untraced run: it reports every end-to-end metric.
func runPlain(cfg *config, setup setupFunc, w io.Writer) (*outcome, error) {
	inst, setups, err := setupTimed(cfg, setup)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	// Collecting here keeps set-up garbage out of the window.
	heapBefore := liveHeapMB()
	epoch := time.Now()
	window := time.Duration(cfg.seconds) * time.Second
	before := guard(inst.sys)
	var heap float64
	var heapOps int64
	ph, werr := runWindow(inst, 0, window, maxWindow(window), false, false, epoch, cfg.heapAt, func(ops int64) { heap, heapOps = liveHeapMB(), ops })
	after := guard(inst.sys)

	out := &outcome{metrics: map[string]metric{}}
	out.count(ph)
	if err := firstFailure(ph); err != nil {
		return out, err
	}
	if werr != nil {
		return out, werr
	}
	if err := checkGuards(before, after); err != nil {
		return out, err
	}
	noise := noiseOf(ph.load)
	// Keep every clean chunk, and at least half a window's worth: on a
	// loaded host the quietest half of the chunks run is still noisy,
	// and latency tails grow with the load the kept chunks carry.
	chunks := int(window / chunkLen)
	kept := quietChunks(noise, min(chunks, max(cleanChunks(noise), (chunks+1)/2)))
	if err := checkHalves(ph, kept, cfg.opsBound); err != nil {
		return out, err
	}
	if err := inst.verify(); err != nil {
		return out, fmt.Errorf("verify: %w", err)
	}

	var keptNoise, droppedNoise []float64
	for i, x := range chunkNoise(noise) {
		if kept[i*int(chunkLen/sliceLen)] {
			keptNoise = append(keptNoise, x)
		} else {
			droppedNoise = append(droppedNoise, x)
		}
	}
	fmt.Fprintf(w, "# window: ran %s, kept the %d quietest %s chunks; interference (ms per %s slice, chunk medians): kept %s; dropped %s; %.0f%% of it stolen by the host\n",
		ph.dur, len(keptNoise), chunkLen, sliceLen, fmtList(keptNoise), fmtList(droppedNoise),
		100*ratio(ph.loadSum(nil, func(l sliceLoad) float64 { return l.stolen }), sum(noise)))
	var keptOps int64
	for i, n := range ph.sliceOps() {
		if kept[i] {
			keptOps += n
		}
	}
	rate, cpu := ph.halves(kept)
	fmt.Fprintf(w, "# process CPU time per op in the kept chunks: %.3f us; halves: %.0f and %.0f ops/s, %.3f and %.3f us\n",
		1e3*ph.loadSum(kept, func(l sliceLoad) float64 { return l.own })/float64(keptOps), rate[0], rate[1], 1e3*cpu[0], 1e3*cpu[1])
	out.set(w, "setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups: %s", len(setups), fmtList(setups)))
	out.set(w, "ops_per_s", ph.rate(kept), "1/s", fmt.Sprintf("kept chunks; %d ops in all %s", ph.ops(), ph.dur))
	type q struct {
		name string
		f    func(r *clientRec) *series
		p    float64
	}
	for _, m := range []q{
		{"p50_us", func(r *clientRec) *series { return &r.all }, 0.5},
		{"p99_us", func(r *clientRec) *series { return &r.all }, 0.99},
		{"init_p50_us", func(r *clientRec) *series { return &r.init }, 0.5},
		{"deleg_p50_us", func(r *clientRec) *series { return &r.deleg }, 0.5},
		{"read_p50_us", func(r *clientRec) *series { return &r.read }, 0.5},
		{"read_p99_us", func(r *clientRec) *series { return &r.read }, 0.99},
		{"write_p50_us", func(r *clientRec) *series { return &r.write }, 0.5},
		{"write_p99_us", func(r *clientRec) *series { return &r.write }, 0.99},
	} {
		v, n, ok := windowQuantile(ph.samples(m.f, kept), m.p)
		if !ok {
			return out, fmt.Errorf("%s: %d samples, too few for that percentile", m.name, n)
		}
		all, _, _ := windowQuantile(ph.samples(m.f, nil), m.p)
		out.set(w, m.name, float64(v)/1e3, "us", fmt.Sprintf("n=%d in kept chunks; all chunks %.3f; per part %s",
			n, float64(all)/1e3, fmtList(partQuantiles(ph.samples(m.f, kept), m.p))))
	}
	out.set(w, "heap_mb", heap, "MB", fmt.Sprintf("live heap after %d ops of the window; %.4f MB before it", heapOps, heapBefore))
	fmt.Fprintf(w, "# ops/s per second: %s\n", fmtList(ph.perSecond()))
	if v, n, ok := windowQuantile(ph.samples(func(r *clientRec) *series { return &r.lag }, nil), 0.99); ok {
		fmt.Fprintf(w, "# harness.gen_lag p99 %.1f us (n=%d)\n", float64(v)/1e3, n)
	}
	if err := inst.teardown(nil); err != nil {
		return out, fmt.Errorf("teardown: %w", err)
	}
	return out, nil
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// maxWindow is the longest a window of d runs to find d of clean
// chunks: 2.5 times as long, in whole chunks.
func maxWindow(d time.Duration) time.Duration {
	return (d*25/10 + chunkLen - 1) / chunkLen * chunkLen
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}
