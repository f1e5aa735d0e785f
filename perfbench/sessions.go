package main

import (
	"bytes"
	"fmt"
	"strconv"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/intent"
	"maxoid/internal/layout"
	mreg "maxoid/internal/metrics"
	"maxoid/internal/provider"
	"maxoid/internal/vfs"
)

// Inputs of delegate_sessions.
const (
	docSize      = 256 << 10 // the document the viewer opens
	historySize  = 1 << 10   // the viewer's own history file, before any session
	warmSessions = 500       // sessions per client during warm-up
)

func setupSessions(cfg *config, reg *mreg.Registry, tr *tracer) (*instance, error) {
	sys, err := core.Boot(core.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	inst, err := newSessions(cfg, sys, tr)
	if err != nil {
		sys.Shutdown()
		return nil, err
	}
	inst.close = func() error { sys.Shutdown(); return nil }
	return inst, nil
}

// sessClient owns one initiator and one viewer app, so AMS never has
// to kill one client's viewer for another's.
type sessClient struct {
	sys      *core.System
	init     string
	viewer   *viewerApp
	ictx     *ams.Context
	initDict *dbTarget
	doc      string // the document, in the initiator's private storage
	docData  []byte
	history  []byte
	hot      int64 // the User Dictionary row the viewer edits
	key      int64 // the _id of the row the viewer adds
	n        int64
}

// viewerApp is the benchmark's document viewer. StartActivity runs its
// OnStart synchronously, so the client hands it the operation context
// before each session and reads its outcome afterwards.
type viewerApp struct {
	pkg string
	cl  *sessClient
	p   *pctx

	inserted  int64
	read, wrt int64 // time spent in the session's reads and writes
}

func (a *viewerApp) Package() string { return a.pkg }

func newSessions(cfg *config, sys *core.System, tr *tracer) (*instance, error) {
	if err := seedDict(sys); err != nil {
		return nil, err
	}
	rng := seedRand(cfg.seed, 0)
	perm := rng.Perm(dictRows)
	var clients []*sessClient
	for c := 0; c < cfg.clients; c++ {
		cl := &sessClient{sys: sys, init: fmt.Sprintf("sess.init%d", c), hot: int64(perm[c] + 1), key: int64(200_000 + c)}
		cl.viewer = &viewerApp{pkg: fmt.Sprintf("sess.view%d", c), cl: cl}
		if err := install(sys, plainApp{cl.init}); err != nil {
			return nil, err
		}
		if err := sys.Install(cl.viewer, ams.Manifest{
			Package: cl.viewer.pkg,
			Filters: []intent.Filter{{Actions: []string{intent.ActionView}}},
		}); err != nil {
			return nil, err
		}
		ictx, err := sys.Launch(cl.init, intent.Intent{})
		if err != nil {
			return nil, err
		}
		cl.ictx = ictx
		cl.initDict = newDBTarget(sys, sys.UserDict, callerOf(ictx), "", "words", "words")
		cl.doc = ictx.DataDir() + "/doc.pdf"
		cl.docData = randomBytes(rng, docSize)
		if err := vfs.WriteFile(ictx.FS(), ictx.Cred(), cl.doc, cl.docData, 0o600); err != nil {
			return nil, err
		}
		// The viewer's own history exists before any session: it runs
		// once as itself, then stops.
		vctx, err := sys.Launch(cl.viewer.pkg, intent.Intent{})
		if err != nil {
			return nil, err
		}
		cl.history = randomBytes(rng, historySize)
		if err := vfs.WriteFile(vctx.FS(), vctx.Cred(), vctx.DataDir()+"/history", cl.history, 0o600); err != nil {
			return nil, err
		}
		sys.AM.StopInstance(cl.viewer.pkg, "")
		clients = append(clients, cl)
	}
	// Warm-up: sessions until caches are filled and every per-session
	// structure has been built and discarded at least once.
	for _, cl := range clients {
		p := &pctx{rec: &clientRec{}, tr: tr}
		for i := 0; i < warmSessions; i++ {
			p.op = 3<<30 | int64(i)
			if _, err := cl.step(p); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	inst := &instance{sys: sys, teardown: func(*tracer) error { return nil }}
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
	return inst, nil
}

// step runs one session: the initiator opens its document in the
// viewer, which runs as its delegate; the initiator then audits Vol and
// discards it with Clear-Vol and Clear-Priv.
func (cl *sessClient) step(p *pctx) (class, error) {
	a := cl.viewer
	a.p, a.inserted, a.read, a.wrt = p, 0, 0, 0
	cl.n++
	t0 := nowNS()
	sp := p.tr.begin(spanStart, p.root, p.op)
	vctx, err := cl.ictx.StartActivity(intent.Intent{
		Action: intent.ActionView, Data: cl.doc, Component: a.pkg, Flags: intent.FlagDelegate,
	})
	p.tr.end(sp)
	t1 := nowNS()
	p.rec.deleg.add(t1-t0, p.rec.cur)
	p.rec.read.add(a.read, p.rec.cur)
	p.rec.write.add(a.wrt, p.rec.cur)
	if err != nil {
		return 0, err
	}
	if vctx.Initiator() != cl.init {
		return 0, fmt.Errorf("viewer ran as %s, want a delegate of %s", vctx.Task(), cl.init)
	}
	// The initiator audits its volatile state: the viewer's SD-card copy
	// is there, its dictionary row is not visible.
	vol, err := cl.sys.ListVolatileFiles(cl.init)
	if err != nil {
		return 0, err
	}
	if len(vol) == 0 {
		return 0, fmt.Errorf("Vol(%s) is empty after a viewer session", cl.init)
	}
	r, err := cl.initDict.viaResolver(&dbOp{kind: opPoint, id: a.inserted})
	if err != nil {
		return 0, err
	}
	if len(r.rows) != 0 {
		return 0, fmt.Errorf("initiator %s sees the viewer's row %d", cl.init, a.inserted)
	}
	if err := clearDomain(cl.sys, cl.init, p.tr, p.root, p.op); err != nil {
		return 0, err
	}
	if vol, err := cl.sys.ListVolatileFiles(cl.init); err != nil || len(vol) != 0 {
		return 0, fmt.Errorf("Vol(%s) after Clear-Vol: %v, %v", cl.init, vol, err)
	}
	p.done = nowNS() // the session, not its last query, is the operation
	p.rec.init.add(p.done-t1, p.rec.cur)
	return 0, nil
}

// OnStart is the viewer's work on one document: read it, save a copy
// to the SD card, append to its history twice, edit and add a
// dictionary word, and query its view.
func (a *viewerApp) OnStart(ctx *ams.Context, in intent.Intent) error {
	if in.Data == "" {
		return nil // started as itself, with no document
	}
	p := a.p
	sp := p.tr.begin(spanOnStart, p.root, p.op)
	defer p.tr.end(sp)
	cl := a.cl
	step := func(name string, read bool, fn func() error) error {
		t0 := nowNS()
		s := p.tr.begin(name, sp, p.op)
		err := fn()
		p.tr.end(s)
		if d := nowNS() - t0; read {
			a.read += d
		} else {
			a.wrt += d
		}
		return err
	}
	doc := &fileTarget{fs: ctx.FS(), cred: ctx.Cred(), path: in.Data, disk: cl.sys.Disk, backing: layout.BackAppData(cl.init) + "/doc.pdf"}
	var data []byte
	if err := step("viewer.read", true, func() (err error) { data, err = doc.issueRead(p); return err }); err != nil {
		return err
	}
	if !bytes.Equal(data, cl.docData) {
		return fmt.Errorf("viewer read %d bytes of the document, not what the initiator wrote", len(data))
	}
	sd := ctx.ExtDir() + "/" + a.pkg + "/copy.pdf"
	if err := step("viewer.sdcopy", false, func() error {
		if err := ctx.FS().MkdirAll(ctx.Cred(), ctx.ExtDir()+"/"+a.pkg, 0o777); err != nil {
			return err
		}
		return vfs.WriteFile(ctx.FS(), ctx.Cred(), sd, data[:chunk], 0o666)
	}); err != nil {
		return err
	}
	hist := ctx.DataDir() + "/history"
	entry := []byte(in.Data + " " + strconv.FormatInt(cl.n, 10) + "\n")
	for _, name := range []string{spanFirstAppend, spanLaterAppend} {
		if err := step(name, false, func() error { return vfs.AppendFile(ctx.FS(), ctx.Cred(), hist, entry, 0o600) }); err != nil {
			return err
		}
	}
	dict := newDBTarget(cl.sys, cl.sys.UserDict, callerOf(ctx), "", "words", "words")
	word := "s" + strconv.FormatInt(cl.n, 10)
	upd := &dbOp{kind: opUpdate, id: cl.hot, set: provider.Values{"word": word}}
	if err := step(spanFirstWrite, false, func() error { _, err := dict.viaResolver(upd); return err }); err != nil {
		return err
	}
	// The row carries its own key: the id an insert returns is read
	// from a database-wide counter after the insert, which a concurrent
	// insert into another table can overwrite (see README.md).
	a.inserted = cl.key
	if err := step(spanLaterWrite, false, func() error {
		_, err := dict.res.Insert(dict.uri, provider.Values{"_id": cl.key, "word": word, "frequency": int64(1), "locale": "en"})
		return err
	}); err != nil {
		return err
	}
	q := &dbOp{kind: opPoint, id: a.inserted}
	var r result
	if err := step("viewer.query", true, func() (err error) { r, err = dict.issue(p, atBinder, q); return err }); err != nil {
		return err
	}
	p.rec.queries++
	p.rec.rows += int64(len(r.rows))
	if len(r.rows) != 1 || r.rows[0][1] != word {
		return fmt.Errorf("viewer's own row %d reads %v", a.inserted, r.rows)
	}
	if p.layered {
		// Steady-state writes for the attribution: the row is already
		// copied up, so these re-issues hit the delta table.
		if _, err := dict.issue(p, atBinder, upd); err != nil {
			return err
		}
	}
	return nil
}

// verify checks that the sessions left the apps' real private state
// untouched: the initiator's document and the viewer's own history.
func (cl *sessClient) verify() error {
	doc, err := vfs.ReadFile(cl.ictx.FS(), cl.ictx.Cred(), cl.doc)
	if err != nil || !bytes.Equal(doc, cl.docData) {
		return fmt.Errorf("initiator's document changed (%v)", err)
	}
	hist, err := vfs.ReadFile(cl.sys.Disk, vfs.Root, layout.BackAppData(cl.viewer.pkg)+"/history")
	if err != nil || !bytes.Equal(hist, cl.history) {
		return fmt.Errorf("viewer's own history changed (%v)", err)
	}
	return nil
}
