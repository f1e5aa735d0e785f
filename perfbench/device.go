package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/intent"
	"maxoid/internal/layout"
	mreg "maxoid/internal/metrics"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
)

// Inputs of the local-device workloads (device_steady, durable_ingest).
const (
	dictRows  = 1000 // User Dictionary rows seeded before the window
	hotRows   = 64   // rows each client updates, disjoint across clients
	poolKeys  = 8    // _id values each client inserts and deletes again
	privFiles = 32   // private files per context
	chunk     = 4 << 10
	pageRows  = 50
)

// devMix is the operation mix of a local-device workload, as relative
// weights of the operation shapes, the size of its private files, and
// how many mixed operations each client issues during warm-up, after
// every copy-up and delta row the window uses exists.
type devMix struct {
	point, page, update, insDel, fileRead, fileWrite int
	fileSize                                         int
	warmOps                                          int
}

// deviceMix is the paper's Table 3 at steady state: provider reads and
// writes through Binder plus private-file I/O. No trace gives the
// shapes' proportions, so each of the six has an equal share.
var deviceMix = devMix{point: 1, page: 1, update: 1, insDel: 1, fileRead: 1, fileWrite: 1, fileSize: 16 << 10, warmOps: 4000}

func setupDevice(cfg *config, reg *mreg.Registry, tr *tracer) (*instance, error) {
	sys, err := core.Boot(core.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	inst, err := newDevInstance(cfg, sys, deviceMix, "dev", tr)
	if err != nil {
		sys.Shutdown()
		return nil, err
	}
	inst.close = func() error { sys.Shutdown(); return nil }
	return inst, nil
}

// devSpec is one generated operation; the initiator and the delegate
// of a client each issue every spec once.
type devSpec struct {
	kind   opKind // opPoint, opPage, opUpdate or opInsDel when file < 0
	id, lo int64
	file   int // >= 0: a file operation on that file
	write  bool
	off    int64
	pat    int
}

// devCtx is one long-lived context of a client.
type devCtx struct {
	ctx   *ams.Context
	dict  *dbTarget
	files []*fileTarget
	model [][]byte         // expected content of each file
	rows  map[int64]rowVal // expected value of each of the client's hot rows
	tag   string           // "i" or "d": prefix of the words it writes
	cls   class
}

// rowVal is the expected (word, frequency) of a User Dictionary row.
type rowVal struct {
	word string
	freq int64
}

type devClient struct {
	c        int
	mix      devMix
	rng      *rand.Rand
	who      [2]*devCtx // initiator, delegate
	hot      []int64
	owner    map[int64]int // hot row -> owning client
	pool     []int64
	patterns [][]byte
	spec     devSpec
	half     int
	seq      int64
}

// newDevInstance installs one initiator and one viewer app per client,
// starts the viewer as the initiator's delegate, seeds the User
// Dictionary and the private files, and warms every client up until
// its copy-ups and delta rows exist.
func newDevInstance(cfg *config, sys *core.System, mix devMix, prefix string, tr *tracer) (*instance, error) {
	if err := seedDict(sys); err != nil {
		return nil, err
	}
	rng := seedRand(cfg.seed, 0)
	perm := rng.Perm(dictRows)
	owner := map[int64]int{}
	clients := make([]*devClient, cfg.clients)
	for c := range clients {
		cl := &devClient{c: c, mix: mix, rng: seedRand(cfg.seed, int64(c)+1), owner: owner}
		for k := 0; k < hotRows; k++ {
			id := int64(perm[c*hotRows+k] + 1)
			cl.hot = append(cl.hot, id)
			owner[id] = c
		}
		for k := 0; k < poolKeys; k++ {
			cl.pool = append(cl.pool, int64(100_000+c*1000+k))
		}
		for k := 0; k < 8; k++ {
			cl.patterns = append(cl.patterns, randomBytes(rng, chunk))
		}
		clients[c] = cl
	}
	for c, cl := range clients {
		initPkg := fmt.Sprintf("%s.init%d", prefix, c)
		viewPkg := fmt.Sprintf("%s.view%d", prefix, c)
		if err := install(sys, plainApp{initPkg}); err != nil {
			return nil, err
		}
		if err := install(sys, plainApp{viewPkg}); err != nil {
			return nil, err
		}
		ictx, err := sys.Launch(initPkg, intent.Intent{})
		if err != nil {
			return nil, err
		}
		// The viewer's own private files exist before it ever runs as a
		// delegate: it writes them running as itself, then stops.
		vctx, err := sys.Launch(viewPkg, intent.Intent{})
		if err != nil {
			return nil, err
		}
		vfiles := make([][]byte, privFiles)
		ifiles := make([][]byte, privFiles)
		for i := range vfiles {
			vfiles[i] = randomBytes(rng, mix.fileSize)
			ifiles[i] = randomBytes(rng, mix.fileSize)
		}
		if err := writePrivate(vctx, vctx.DataDir(), vfiles); err != nil {
			return nil, err
		}
		sys.AM.StopInstance(viewPkg, "")
		dctx, err := sys.LaunchAsDelegate(viewPkg, initPkg, intent.Intent{})
		if err != nil {
			return nil, err
		}
		if err := writePrivate(ictx, ictx.DataDir(), ifiles); err != nil {
			return nil, err
		}
		cl.who[0] = newDevCtx(sys, ictx, "i", clsInit, ifiles, layout.BackAppData(initPkg), cl.hot)
		cl.who[1] = newDevCtx(sys, dctx, "d", clsDeleg, vfiles, layout.BackNPrivBranch(viewPkg, initPkg), cl.hot)
		if err := cl.warm(tr); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	inst := &instance{sys: sys}
	for _, cl := range clients {
		inst.clients = append(inst.clients, cl)
	}
	inst.verify = func() error {
		for _, cl := range clients {
			if err := cl.verify(); err != nil {
				return err
			}
		}
		return nil
	}
	inst.teardown = func(tr *tracer) error {
		for i, cl := range clients {
			if err := clearDomain(sys, cl.who[0].ctx.Package(), tr, -1, int64(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return inst, nil
}

func newDevCtx(sys *core.System, ctx *ams.Context, tag string, cls class, files [][]byte, backing string, hot []int64) *devCtx {
	d := &devCtx{ctx: ctx, tag: tag, cls: cls, model: files, rows: map[int64]rowVal{}}
	d.dict = newDBTarget(sys, sys.UserDict, callerOf(ctx), "", "words", "words")
	for i := range files {
		name := fmt.Sprintf("f%02d", i)
		d.files = append(d.files, &fileTarget{
			fs: ctx.FS(), cred: ctx.Cred(), path: ctx.DataDir() + "/" + name,
			disk: sys.Disk, backing: backing + "/" + name,
		})
	}
	for _, id := range hot {
		d.rows[id] = seedWord(id)
	}
	return d
}

func seedWord(id int64) rowVal { return rowVal{word: "w" + strconv.FormatInt(id, 10), freq: id} }

// seedDict fills the User Dictionary with dictRows rows in one
// transaction.
func seedDict(sys *core.System) error {
	db := sys.UserDict.Proxy().DB()
	if _, err := db.Exec("BEGIN"); err != nil {
		return err
	}
	for id := int64(1); id <= dictRows; id++ {
		w := seedWord(id)
		if _, err := db.Exec("INSERT INTO words (_id, word, frequency, locale, appid) VALUES (?, ?, ?, 'en', 0)", id, w.word, w.freq); err != nil {
			return err
		}
	}
	_, err := db.Exec("COMMIT")
	return err
}

// warm makes every copy-up and delta row the window will use, timing
// the delegate's first write against a later one and each first
// (copy-up) write of a file against the second, then runs the mix's
// warm-up operations so that every cache is filled.
func (cl *devClient) warm(tr *tracer) error {
	p := &pctx{rec: &clientRec{}}
	c := int64(cl.c)
	for w, d := range cl.who {
		for k, id := range cl.hot {
			name := ""
			if w == 1 && k < 2 {
				name = []string{spanFirstWrite, spanLaterWrite}[k]
			}
			if err := timed(tr, name, 1<<30|c, func() error { return cl.update(p, d, id) }); err != nil {
				return err
			}
		}
		for _, id := range cl.pool {
			if err := cl.insDel(p, d, id); err != nil {
				return err
			}
		}
		for pass, name := range []string{spanFirstAppend, spanLaterAppend} {
			if w == 0 {
				name = ""
			}
			for f := range d.files {
				if err := timed(tr, name, 2<<30|c<<10|int64(f), func() error { return cl.overwrite(p, d, f, 0, pass) }); err != nil {
					return err
				}
			}
		}
	}
	for i := 0; i < cl.mix.warmOps; i++ {
		if _, err := cl.step(p); err != nil {
			return err
		}
	}
	return nil
}

// timed runs fn in a root span called name of operation op; an empty
// name runs it untimed.
func timed(tr *tracer, name string, op int64, fn func() error) error {
	if name == "" {
		return fn()
	}
	sp := tr.begin(name, -1, op)
	err := fn()
	tr.end(sp)
	return err
}

// gen draws the next operation from the client's mix.
func (cl *devClient) gen() devSpec {
	m := cl.mix
	r := cl.rng.Intn(m.point + m.page + m.update + m.insDel + m.fileRead + m.fileWrite)
	s := devSpec{file: -1}
	switch {
	case r < m.point:
		s.kind, s.id = opPoint, int64(cl.rng.Intn(dictRows)+1)
	case r < m.point+m.page:
		s.kind, s.lo = opPage, int64(cl.rng.Intn(dictRows-pageRows+1)+1)
	case r < m.point+m.page+m.update:
		s.kind, s.id = opUpdate, cl.hot[cl.rng.Intn(len(cl.hot))]
	case r < m.point+m.page+m.update+m.insDel:
		s.kind, s.id = opInsDel, cl.pool[cl.rng.Intn(len(cl.pool))]
	case r < m.point+m.page+m.update+m.insDel+m.fileRead:
		s.file = cl.rng.Intn(privFiles)
	default:
		s.file, s.write = cl.rng.Intn(privFiles), true
		s.off = int64(cl.rng.Intn(m.fileSize/chunk)) * chunk
		s.pat = cl.rng.Intn(len(cl.patterns))
	}
	return s
}

// step issues the current spec as the initiator, then the same spec as
// the delegate, then draws a new one.
func (cl *devClient) step(p *pctx) (class, error) {
	if cl.half == 0 {
		cl.spec = cl.gen()
	}
	d := cl.who[cl.half]
	cl.half ^= 1
	s := cl.spec
	switch {
	case s.file >= 0 && s.write:
		return d.cls | clsWrite, cl.overwrite(p, d, s.file, s.off, s.pat)
	case s.file >= 0:
		return d.cls | clsRead, cl.readFile(p, d, s.file)
	case s.kind == opUpdate:
		return d.cls | clsWrite, cl.update(p, d, s.id)
	case s.kind == opInsDel:
		return d.cls | clsWrite, cl.insDel(p, d, s.id)
	}
	op := &dbOp{kind: s.kind, id: s.id, lo: s.lo, hi: s.lo + pageRows}
	r, err := d.dict.issue(p, atBinder, op)
	if err != nil {
		return d.cls | clsRead, err
	}
	p.rec.queries++
	p.rec.rows += int64(len(r.rows))
	return d.cls | clsRead, cl.checkRead(d, op, r)
}

// update sets a hot row's word and frequency in the context's view.
func (cl *devClient) update(p *pctx, d *devCtx, id int64) error {
	cl.seq++
	v := rowVal{word: d.tag + strconv.FormatInt(id, 10), freq: cl.seq}
	op := &dbOp{kind: opUpdate, id: id, set: provider.Values{"word": v.word, "frequency": v.freq}}
	r, err := d.dict.issue(p, atBinder, op)
	if err != nil {
		return err
	}
	if r.count != 1 {
		return fmt.Errorf("%s: update of row %d changed %d rows", d.ctx.Task(), id, r.count)
	}
	d.rows[id] = v
	p.rec.writes++
	p.rec.userBytes += int64(len(v.word)) + 8
	return nil
}

// insDel inserts a row under one of the client's pool keys and deletes
// it again, so the table keeps its size.
func (cl *devClient) insDel(p *pctx, d *devCtx, id int64) error {
	row := provider.Values{"_id": id, "word": "x" + strconv.FormatInt(id, 10), "frequency": int64(0), "locale": "en"}
	r, err := d.dict.issue(p, atBinder, &dbOp{kind: opInsDel, id: id, row: row})
	if err != nil {
		return err
	}
	if r.count != 1 {
		return fmt.Errorf("%s: delete of inserted row %d removed %d rows", d.ctx.Task(), id, r.count)
	}
	p.rec.writes += 2
	p.rec.userBytes += 8 + int64(len(row["word"].(string))) + 8 + 2 + 8
	return nil
}

func (cl *devClient) readFile(p *pctx, d *devCtx, f int) error {
	ft := d.files[f]
	data, err := ft.issueRead(p)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, d.model[f]) {
		return fmt.Errorf("%s: %s read back %d bytes that differ from what was written", d.ctx.Task(), ft.path, len(data))
	}
	return nil
}

func (cl *devClient) overwrite(p *pctx, d *devCtx, f int, off int64, pat int) error {
	data := cl.patterns[pat]
	if err := d.files[f].issueOverwrite(p, off, data); err != nil {
		return err
	}
	copy(d.model[f][off:], data)
	p.rec.writes++
	p.rec.userBytes += int64(len(data))
	return nil
}

// checkRead compares a query result with the model: rows this client
// owns must read exactly as it last wrote them in this view; rows
// another client owns must hold that client's initiator's word or the
// seed (never a delegate's); all other rows must hold the seed.
func (cl *devClient) checkRead(d *devCtx, op *dbOp, r result) error {
	want := []string{"_id", "word", "frequency", "locale", "appid"}
	if len(r.columns) != len(want) {
		return fmt.Errorf("%s: columns %v, want %v", d.ctx.Task(), r.columns, want)
	}
	for i, c := range want {
		if r.columns[i] != c {
			return fmt.Errorf("%s: columns %v, want %v", d.ctx.Task(), r.columns, want)
		}
	}
	n := int64(1)
	if op.kind == opPage {
		n = op.hi - op.lo
	}
	if int64(len(r.rows)) != n {
		return fmt.Errorf("%s: %d rows for %+v, want %d", d.ctx.Task(), len(r.rows), *op, n)
	}
	for i, row := range r.rows {
		id := op.id
		if op.kind == opPage {
			id = op.lo + int64(i)
		}
		if err := cl.checkRow(d, id, row); err != nil {
			return err
		}
	}
	return nil
}

func (cl *devClient) checkRow(d *devCtx, id int64, row []sqldb.Value) error {
	got := rowVal{}
	gotID, _ := row[0].(int64)
	got.word, _ = row[1].(string)
	got.freq, _ = row[2].(int64)
	if gotID != id || row[3] != "en" {
		return fmt.Errorf("%s: row %d read as %v", d.ctx.Task(), id, row)
	}
	owner, hot := cl.owner[id]
	switch {
	case hot && owner == cl.c:
		if got != d.rows[id] {
			return fmt.Errorf("%s: row %d reads %+v, last written %+v", d.ctx.Task(), id, got, d.rows[id])
		}
	case hot:
		if s := seedWord(id); got.word != s.word && got.word != "i"+s.word[1:] {
			return fmt.Errorf("%s: row %d of another client reads %+v", d.ctx.Task(), id, got)
		}
	default:
		if got != seedWord(id) {
			return fmt.Errorf("%s: unwritten row %d reads %+v", d.ctx.Task(), id, got)
		}
	}
	return nil
}

// verify checks, once the window is over, that no delegate update is
// visible to the initiator and every file reads back as written.
func (cl *devClient) verify() error {
	p := &pctx{rec: &clientRec{}}
	init, deleg := cl.who[0], cl.who[1]
	for _, id := range cl.hot {
		r, err := init.dict.viaResolver(&dbOp{kind: opPoint, id: id})
		if err != nil {
			return err
		}
		if len(r.rows) != 1 || r.rows[0][1] == deleg.rows[id].word {
			return fmt.Errorf("delegate update of row %d is visible to the initiator: %v", id, r.rows)
		}
		if err := cl.checkRow(init, id, r.rows[0]); err != nil {
			return err
		}
	}
	for _, d := range cl.who {
		for f := range d.files {
			if err := cl.readFile(p, d, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// issue runs op at its entry layer top and, in the attribution phase,
// again at every layer below it, each call in a span of the operation.
// The order alternates between operations so that neither end of the
// stack always runs with warmer caches.
func (t *dbTarget) issue(p *pctx, top layer, op *dbOp) (result, error) {
	sp := p.tr.begin(top.spanName(op.kind), p.root, p.op)
	r, err := t.do(top, op)
	p.tr.end(sp)
	p.done = nowNS()
	if err == nil {
		err = r.decode()
	}
	if err != nil || !p.layered {
		return r, err
	}
	var below []layer
	for l := top + 1; l <= atSqldb; l++ {
		below = append(below, l)
	}
	if p.op%2 == 1 {
		for i, j := 0, len(below)-1; i < j; i, j = i+1, j-1 {
			below[i], below[j] = below[j], below[i]
		}
	}
	for _, l := range below {
		sp := p.tr.begin(l.spanName(op.kind), p.root, p.op)
		_, err := t.do(l, op)
		p.tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("re-issue at %s: %w", l.spanName(op.kind), err)
		}
	}
	return r, nil
}

// issueRead reads the file through the namespace and, in the
// attribution phase, again at its backing path on the disk.
func (f *fileTarget) issueRead(p *pctx) ([]byte, error) {
	sp := p.tr.begin(spanUnionfs, p.root, p.op)
	data, err := f.read(false)
	p.tr.end(sp)
	if err != nil || !p.layered {
		return data, err
	}
	sp = p.tr.begin(spanVFS, p.root, p.op)
	_, err = f.read(true)
	p.tr.end(sp)
	return data, err
}

// issueOverwrite is issueRead for an in-place write.
func (f *fileTarget) issueOverwrite(p *pctx, off int64, data []byte) error {
	sp := p.tr.begin(spanUnionfs, p.root, p.op)
	err := f.overwrite(false, off, data)
	p.tr.end(sp)
	if err != nil || !p.layered {
		return err
	}
	sp = p.tr.begin(spanVFS, p.root, p.op)
	err = f.overwrite(true, off, data)
	p.tr.end(sp)
	return err
}

// clearDomain times Clear-Vol and Clear-Priv of one initiator.
func clearDomain(sys *core.System, initiator string, tr *tracer, parent int32, op int64) error {
	sp := tr.begin(spanClearVol, parent, op)
	err := sys.ClearVol(initiator)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(spanClearPriv, parent, op)
	err = sys.ClearPriv(initiator)
	tr.end(sp)
	return err
}
