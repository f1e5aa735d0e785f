package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names at the layer boundaries the benchmark calls into. A layer
// span times the benchmark's own call into that layer's public entry
// point; spans inside the program are not recorded.
const (
	spanOp          = "op"             // one measured operation (root)
	spanGateway     = "gateway"        // System.GatewayRequest
	spanBinder      = "binder"         // provider.Resolver
	spanProvider    = "provider"       // provider.Provider
	spanCowproxy    = "cowproxy"       // cowproxy.Conn
	spanSqldbQuery  = "sqldb.query"    // sqldb.DB.Query
	spanSqldbExec   = "sqldb.exec"     // sqldb.DB.Exec
	spanUnionfs     = "unionfs"        // vfs.FileSystem via ctx.FS()
	spanVFS         = "vfs"            // vfs.FileSystem via sys.Disk
	spanStart       = "ams.start"      // Context.StartActivity
	spanOnStart     = "app.onstart"    // the started app's OnStart
	spanClearVol    = "ams.clearvol"   // System.ClearVol
	spanClearPriv   = "ams.clearpriv"  // System.ClearPriv
	spanFirstWrite  = "cowproxy.first" // a delegate's first provider write
	spanLaterWrite  = "cowproxy.later" // a later write by the same delegate
	spanFirstAppend = "unionfs.first"  // first write to a lower-branch file
	spanLaterAppend = "unionfs.later"  // second write to the same file
)

// span is one timed call: name, start and end (ns since the tracer's
// epoch), the index of the span that caused it (-1 for a root), and the
// operation it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

// tracer keeps one client's spans in memory. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// spanStats reduces the spans of all clients to per-layer figures.
type spanStats struct {
	byName map[string][]int64 // durations per span name
	byOp   []span             // every span, grouped by operation
}

func collectSpans(ts []*tracer) spanStats {
	st := spanStats{byName: map[string][]int64{}}
	for _, t := range ts {
		for _, s := range t.spans {
			st.byName[s.name] = append(st.byName[s.name], s.end-s.start)
		}
		st.byOp = append(st.byOp, t.spans...)
	}
	sort.SliceStable(st.byOp, func(i, j int) bool { return st.byOp[i].op < st.byOp[j].op })
	return st
}

// medianUS is the median duration of the named spans in microseconds,
// and the number of spans.
func (st spanStats) medianUS(name string) (float64, int) {
	v := st.byName[name]
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d) / 1e3
	}
	return median(f), len(v)
}

// selfUS is a layer's self time: for every operation issued at both
// boundaries, the upper span's duration minus the lower one's, as a
// median in microseconds with the number of paired operations. Every
// lower name is tried in order, so one upper layer can pair with the
// query or the exec span below it.
func (st spanStats) selfUS(upper string, lower ...string) (float64, int) {
	var diffs []float64
	var up, lo []int64
	for i := 0; i < len(st.byOp); {
		j := i
		for j < len(st.byOp) && st.byOp[j].op == st.byOp[i].op {
			j++
		}
		group := st.byOp[i:j]
		i = j
		up = durations(up[:0], group, upper)
		if len(up) == 0 {
			continue
		}
		for _, l := range lower {
			lo = durations(lo[:0], group, l)
			for k := 0; k < len(up) && k < len(lo); k++ {
				diffs = append(diffs, float64(up[k]-lo[k])/1e3)
			}
			if len(lo) > 0 {
				break
			}
		}
	}
	return median(diffs), len(diffs)
}

// durations appends the durations of the spans called name, in order.
func durations(dst []int64, spans []span, name string) []int64 {
	for _, s := range spans {
		if s.name == name {
			dst = append(dst, s.end-s.start)
		}
	}
	return dst
}

// writeSpans writes every span, one per line, when the run ends:
// client, op id, span index, parent index, name, start ns, end ns.
func writeSpans(dir, file string, header string, ts []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, file)
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# client\top\tspan\tparent\tname\tstart_ns\tend_ns\n", header)
	for c, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, s.op, i, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}
