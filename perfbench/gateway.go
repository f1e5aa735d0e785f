package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"maxoid/internal/binder"
	"maxoid/internal/core"
	"maxoid/internal/gateway"
	"maxoid/internal/kernel"
	mreg "maxoid/internal/metrics"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
)

// Inputs of gateway_fleet.
const (
	gwDevices = 1000 // identities
	// gwDelegates of them are delegates, each of a distinct initiator
	// device; the rest are initiators. Every delegate of a new initiator
	// rebuilds the table's administrative view over all delta tables and
	// the database caches each rebuild's statement, so memory grows with
	// the square of this number: at 500 the run holds about 450 MB.
	gwDelegates = 128
	gwRows      = 1000 // rows in each of the two tables, before and after
	gwHot       = 2    // rows per table each identity writes
	gwWarmOps   = 4000 // mixed requests per client during warm-up
	gwClearing  = 8    // initiators whose domains the teardown clears, timed
)

// listColumns is the projection of whole-table lists.
var listColumns = []string{"_id", "title"}

// gwIdentity is one remote device: its token and its view of the Media
// files and Downloads tables through every layer.
type gwIdentity struct {
	task        kernel.Task
	token       string
	cls         class
	media, dl   *dbTarget
	hotM, hotDl []int64
}

type gwClient struct {
	rng         *rand.Rand
	model       *gwModel
	init, deleg []*gwIdentity
	// hot marks, for each delegate identity of this client, the rows
	// it has written, which its view must show as written.
	hot map[*gwIdentity]map[int64]bool
}

func setupGateway(cfg *config, reg *mreg.Registry, tr *tracer) (*instance, error) {
	sys, err := core.Boot(core.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	inst, err := newGateway(cfg, sys, tr)
	if err != nil {
		sys.Shutdown()
		return nil, err
	}
	inst.close = func() error { sys.Shutdown(); return nil }
	return inst, nil
}

func mediaRow(pk int64) []sqldb.Value {
	return []sqldb.Value{pk, "/storage/sdcard/DCIM/m" + strconv.FormatInt(pk, 10) + ".jpg", int64(1), "t" + strconv.FormatInt(pk, 10), pk * 100, pk, int64(0), nil, nil, "image/jpeg"}
}

func dlRow(pk int64) []sqldb.Value {
	return []sqldb.Value{pk, "http://sync.example.com/f" + strconv.FormatInt(pk, 10), "t" + strconv.FormatInt(pk, 10), "/storage/sdcard/Download/f" + strconv.FormatInt(pk, 10), int64(200), pk * 10}
}

func newGateway(cfg *config, sys *core.System, tr *tracer) (*instance, error) {
	mdb, ddb := sys.Media.Proxy().DB(), sys.Downloads.Proxy().DB()
	for pk := int64(1); pk <= gwRows; pk++ {
		if _, err := mdb.Exec("INSERT INTO files (_id, _data, media_type, title, size, date_added, duration, artist_id, album_id, mime_type) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", mediaRow(pk)...); err != nil {
			return nil, err
		}
		if _, err := ddb.Exec("INSERT INTO downloads (_id, uri, title, _data, status, total_bytes) VALUES (?, ?, ?, ?, ?, ?)", dlRow(pk)...); err != nil {
			return nil, err
		}
	}
	for i := 0; i < gwDevices; i++ {
		if err := install(sys, plainApp{fmt.Sprintf("gw%03d", i)}); err != nil {
			return nil, err
		}
	}
	if _, err := sys.StartGateway(core.GatewayOptions{AllowDetached: true, Workers: cfg.clients}); err != nil {
		return nil, err
	}
	rng := seedRand(cfg.seed, 0)
	model := &gwModel{
		media: newTableModel([]string{"_id", "_data", "media_type", "title", "size", "date_added", "duration", "artist_id", "album_id", "mime_type"}, mediaRow),
		dl:    newTableModel([]string{"_id", "uri", "title", "_data", "status", "total_bytes"}, dlRow),
	}
	clients := make([]*gwClient, cfg.clients)
	for c := range clients {
		clients[c] = &gwClient{rng: seedRand(cfg.seed, int64(c)+1), model: model, hot: map[*gwIdentity]map[int64]bool{}}
	}
	first := gwDevices - gwDelegates
	var all []*gwIdentity
	for i := 0; i < gwDevices; i++ {
		id := &gwIdentity{task: kernel.Task{App: fmt.Sprintf("gw%03d", i)}, cls: clsInit}
		if i >= first {
			// Each delegate acts for a distinct initiator device.
			id.task.Initiator = fmt.Sprintf("gw%03d", i-first)
			id.cls = clsDeleg
		}
		id.token = gateway.Token(id.task)
		// Detached identities carry a kernel-less caller: the gateway's
		// own binding for a device with no live instance.
		caller := binder.Caller{Task: id.task}
		id.media = newDBTarget(sys, sys.Media, caller, id.token, "files", "files")
		id.dl = newDBTarget(sys, sys.Downloads, caller, id.token, "my_downloads", "downloads")
		for k := 0; k < gwHot; k++ {
			id.hotM = append(id.hotM, int64(rng.Intn(gwRows)+1))
			id.hotDl = append(id.hotDl, int64(rng.Intn(gwRows)+1))
		}
		cl := clients[i%len(clients)]
		if id.cls == clsDeleg {
			cl.deleg = append(cl.deleg, id)
		} else {
			cl.init = append(cl.init, id)
		}
		all = append(all, id)
	}
	// Warm-up: every identity writes its rows once (each delegate's
	// first write builds its COW views), every delegate issues every read
	// shape once on both tables, so that the statement caches hold the
	// fleet's own statements; then mixed requests.
	for c, cl := range clients {
		p := &pctx{rec: &clientRec{}}
		for i, id := range append(append([]*gwIdentity{}, cl.init...), cl.deleg...) {
			for t, tgt := range []*dbTarget{id.media, id.dl} {
				hot := id.hotM
				if t == 1 {
					hot = id.hotDl
				}
				for k, pk := range hot {
					name := ""
					if id.cls == clsDeleg {
						name = []string{spanFirstWrite, spanLaterWrite}[k]
					}
					op := int64(4<<30 | c<<20 | i<<1 | t)
					if err := timed(tr, name, op, func() error { return cl.put(p, id, tgt, pk) }); err != nil {
						return nil, fmt.Errorf("warm-up: %w", err)
					}
				}
			}
		}
		for _, id := range cl.deleg {
			for _, t := range []*dbTarget{id.media, id.dl} {
				for _, op := range []*dbOp{
					{kind: opPoint, id: 1},
					{kind: opPage, lo: 1, hi: 1 + pageRows},
					{kind: opList, columns: listColumns},
				} {
					r, err := t.issue(p, atGateway, op)
					if err == nil {
						err = cl.check(id, t, op, r)
					}
					if err != nil {
						return nil, fmt.Errorf("warm-up: %w", err)
					}
				}
			}
		}
		for i := 0; i < gwWarmOps; i++ {
			if _, err := cl.step(p); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	inst := &instance{sys: sys}
	for _, cl := range clients {
		inst.clients = append(inst.clients, cl)
	}
	inst.verify = func() error { return verifyGateway(clients) }
	inst.teardown = func(tr *tracer) error {
		for i := 0; i < gwClearing; i++ {
			if err := clearDomain(sys, all[i].task.App, tr, -1, int64(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return inst, nil
}

// put writes one of the identity's rows: initiators write "i<pk>" to
// the shared table, delegates "d<pk>" to their initiator's COW view.
func (cl *gwClient) put(p *pctx, id *gwIdentity, t *dbTarget, pk int64) error {
	title := "i" + strconv.FormatInt(pk, 10)
	if id.cls == clsDeleg {
		title = "d" + strconv.FormatInt(pk, 10)
		m := cl.hot[id]
		if m == nil {
			m = map[int64]bool{}
			cl.hot[id] = m
		}
		m[hotKey(t, pk)] = true
	}
	r, err := t.issue(p, atGateway, &dbOp{kind: opUpdate, id: pk, set: provider.Values{"title": title}})
	if err != nil {
		return err
	}
	if r.count != 1 {
		return fmt.Errorf("%s PUT %s/%d changed %d rows", id.token, t.table, pk, r.count)
	}
	p.rec.writes++
	p.rec.userBytes += int64(len(title))
	return nil
}

// hotKey distinguishes the two tables' rows in one set.
func hotKey(t *dbTarget, pk int64) int64 {
	if t.table == "downloads" {
		return -pk
	}
	return pk
}

// step issues one request of the fleet mix from a random identity of
// the client: point GETs, 50-row pages, a few whole-table lists, PUTs.
func (cl *gwClient) step(p *pctx) (class, error) {
	// Half the requests come from initiators, half from delegates.
	ids := cl.init
	if cl.rng.Intn(2) == 1 {
		ids = cl.deleg
	}
	id := ids[cl.rng.Intn(len(ids))]
	t, hot := id.media, id.hotM
	if cl.rng.Intn(2) == 1 {
		t, hot = id.dl, id.hotDl
	}
	// No trace gives the shapes' proportions: point GETs, 50-row pages
	// and PUTs have equal shares, and one request in 31 lists the whole
	// table.
	r := cl.rng.Intn(31)
	if r < 10 {
		return id.cls | clsWrite, cl.put(p, id, t, hot[cl.rng.Intn(len(hot))])
	}
	op := &dbOp{kind: opPoint, id: int64(cl.rng.Intn(gwRows) + 1)}
	switch {
	case r == 30:
		op.kind = opList
		op.columns = listColumns
	case r >= 20:
		op.kind = opPage
		op.lo = int64(cl.rng.Intn(gwRows-pageRows+1) + 1)
		op.hi = op.lo + pageRows
	}
	res, err := t.issue(p, atGateway, op)
	if err != nil {
		return id.cls | clsRead, err
	}
	p.rec.queries++
	p.rec.rows += int64(len(res.rows))
	p.rec.respBytes += int64(res.bytes)
	return id.cls | clsRead, cl.check(id, t, op, res)
}

// check compares a response with the model of the seeded tables: every
// column as seeded except the title, which is the delegate's own
// write for its written rows and otherwise the seed or an initiator's
// write, never a delegate's.
func (cl *gwClient) check(id *gwIdentity, t *dbTarget, op *dbOp, r result) error {
	var lo, n int64 = op.id, 1
	switch op.kind {
	case opPage:
		lo, n = op.lo, op.hi-op.lo
	case opList:
		lo, n = 1, gwRows
	}
	if int64(len(r.rows)) != n {
		return fmt.Errorf("%s %s %+v: %d rows, want %d", id.token, t.table, *op, len(r.rows), n)
	}
	m := cl.model.media
	if t.table == "downloads" {
		m = cl.model.dl
	}
	// Map each returned column to the seeded column it must match.
	var idx [16]int
	if len(r.columns) > len(idx) {
		return fmt.Errorf("%s %s: %d columns", id.token, t.table, len(r.columns))
	}
	for i, c := range r.columns {
		idx[i] = -1
		for j, sc := range m.cols {
			if c == sc {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			return fmt.Errorf("%s %s: unexpected column %s", id.token, t.table, c)
		}
	}
	if len(op.columns) == 0 && len(r.columns) != len(m.cols) {
		return fmt.Errorf("%s %s: columns %v, want %v", id.token, t.table, r.columns, m.cols)
	}
	own := cl.hot[id]
	for i, row := range r.rows {
		pk := lo + int64(i)
		if len(row) != len(r.columns) {
			return fmt.Errorf("%s %s row %d: %d values", id.token, t.table, pk, len(row))
		}
		want := m.rows[pk]
		for k, v := range row {
			j := idx[k]
			if j != m.title {
				if v != want[j] {
					return fmt.Errorf("%s %s row %d: %s = %v, seeded %v", id.token, t.table, pk, m.cols[j], v, want[j])
				}
				continue
			}
			if own[hotKey(t, pk)] {
				if v != m.deleg[pk] {
					return fmt.Errorf("%s %s row %d: title %v, its own write was %v", id.token, t.table, pk, v, m.deleg[pk])
				}
			} else if v != want[j] && v != m.init[pk] {
				return fmt.Errorf("%s %s row %d: title %v is not the seed or an initiator's write", id.token, t.table, pk, v)
			}
		}
	}
	return nil
}

// tableModel is the content of one seeded table, by primary key: the
// seeded row, and the titles initiators and delegates write.
type tableModel struct {
	cols        []string
	title       int // index of the title column
	rows        [][]sqldb.Value
	init, deleg []sqldb.Value
}

type gwModel struct{ media, dl *tableModel }

func newTableModel(cols []string, seed func(int64) []sqldb.Value) *tableModel {
	m := &tableModel{cols: cols, rows: make([][]sqldb.Value, gwRows+1),
		init: make([]sqldb.Value, gwRows+1), deleg: make([]sqldb.Value, gwRows+1)}
	for i, c := range cols {
		if c == "title" {
			m.title = i
		}
	}
	for pk := int64(1); pk <= gwRows; pk++ {
		m.rows[pk] = seed(pk)
		m.init[pk] = "i" + strconv.FormatInt(pk, 10)
		m.deleg[pk] = "d" + strconv.FormatInt(pk, 10)
	}
	return m
}

// verifyGateway checks, for every delegate identity, that its writes
// read back through its own token and are invisible through its
// initiator's token.
func verifyGateway(clients []*gwClient) error {
	byApp := map[string]*gwIdentity{}
	for _, cl := range clients {
		for _, id := range cl.init {
			byApp[id.task.App] = id
		}
	}
	for _, cl := range clients {
		for _, id := range cl.deleg {
			init := byApp[id.task.Initiator]
			for _, pk := range id.hotM {
				mine, err := id.media.viaGateway(&dbOp{kind: opPoint, id: pk})
				if err == nil {
					err = mine.decode()
				}
				if err != nil {
					return err
				}
				theirs, err := init.media.viaGateway(&dbOp{kind: opPoint, id: pk})
				if err == nil {
					err = theirs.decode()
				}
				if err != nil {
					return err
				}
				want := sqldb.Value("d" + strconv.FormatInt(pk, 10))
				if mine.rows[0][3] != want || theirs.rows[0][3] == want {
					return fmt.Errorf("%s PUT files/%d: own view %v, initiator %s sees %v", id.token, pk, mine.rows[0][3], init.token, theirs.rows[0][3])
				}
				if !strings.HasPrefix(fmt.Sprint(theirs.rows[0][3]), "t") && !strings.HasPrefix(fmt.Sprint(theirs.rows[0][3]), "i") {
					return fmt.Errorf("%s sees title %v", init.token, theirs.rows[0][3])
				}
			}
		}
	}
	return nil
}
