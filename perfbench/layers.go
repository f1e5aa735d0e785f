package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"maxoid/internal/binder"
	"maxoid/internal/core"
	"maxoid/internal/cowproxy"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
)

// opKind is the shape of one provider operation.
type opKind uint8

const (
	opPoint  opKind = iota // query one row by _id
	opPage                 // 50-row _id range ordered by _id
	opList                 // whole table ordered by _id
	opUpdate               // update one row by _id
	opInsDel               // insert a row with a given _id, then delete it
)

func (k opKind) isRead() bool { return k <= opList }

// dbOp is one provider operation, expressed so that it can be issued at
// any layer boundary with the same meaning.
type dbOp struct {
	kind    opKind
	id      int64 // opPoint, opUpdate, opInsDel
	lo, hi  int64 // opPage: lo <= _id < hi
	columns []string
	set     provider.Values // opUpdate: columns to set
	row     provider.Values // opInsDel: inserted row, including _id
}

// result is what one operation returned, in one shape for every layer.
type result struct {
	columns []string
	rows    [][]sqldb.Value
	count   int64  // rows affected (writes)
	bytes   int    // response body bytes (gateway only)
	body    []byte // gateway response not yet decoded
}

// dbTarget is one caller's handle on one provider table at every layer:
// the gateway (token), Binder (Resolver), the provider itself, the COW
// proxy connection of the caller's view, and the database under it.
type dbTarget struct {
	sys       *core.System
	token     string // gateway identity; "" when the gateway is not used
	gwPath    string // "/v1/<authority>/<path>"
	uri       string // "content://<authority>/<path>"
	table     string // provider table name
	caller    binder.Caller
	res       *provider.Resolver
	prov      provider.Provider
	conn      *cowproxy.Conn
	db        *sqldb.DB
	view      string // the table as the caller's view names it in sqldb
	delta     string // the caller's delta table ("" for initiators)
	deltaCols []string
}

type proxied interface {
	provider.Provider
	Proxy() *cowproxy.Proxy
}

// newDBTarget binds caller to authority/path (provider table table).
func newDBTarget(sys *core.System, p proxied, caller binder.Caller, token, path, table string) *dbTarget {
	t := &dbTarget{
		sys:    sys,
		token:  token,
		gwPath: "/v1/" + p.Authority() + "/" + path,
		uri:    "content://" + p.Authority() + "/" + path,
		table:  table,
		caller: caller,
		res:    provider.NewResolver(sys.Router, caller),
		prov:   p,
		conn:   p.Proxy().For(provider.InitiatorOf(caller)),
		db:     p.Proxy().DB(),
		view:   table,
	}
	if init := provider.InitiatorOf(caller); init != "" {
		t.view = cowproxy.COWViewName(table, init)
		t.delta = cowproxy.DeltaTableName(table, init)
	}
	return t
}

// layer names the boundary an operation is issued at.
type layer uint8

const (
	atGateway layer = iota
	atBinder
	atProvider
	atCowproxy
	atSqldb
)

// spanName is the span recorded for an operation issued at l.
func (l layer) spanName(k opKind) string {
	switch l {
	case atGateway:
		return spanGateway
	case atBinder:
		return spanBinder
	case atProvider:
		return spanProvider
	case atCowproxy:
		return spanCowproxy
	}
	if k.isRead() {
		return spanSqldbQuery
	}
	return spanSqldbExec
}

// do issues op at layer l.
func (t *dbTarget) do(l layer, op *dbOp) (result, error) {
	switch l {
	case atGateway:
		return t.viaGateway(op)
	case atBinder:
		return t.viaResolver(op)
	case atProvider:
		return t.viaProvider(op)
	case atCowproxy:
		return t.viaConn(op)
	}
	return t.viaDB(op)
}

func (op *dbOp) where() (string, []sqldb.Value) {
	switch op.kind {
	case opPage:
		return "_id >= ? AND _id < ?", []sqldb.Value{op.lo, op.hi}
	case opList:
		return "", nil
	}
	return "_id = ?", []sqldb.Value{op.id}
}

func (op *dbOp) order() string {
	if op.kind == opPage || op.kind == opList {
		return "_id"
	}
	return ""
}

func fromRows(r *sqldb.Rows) result { return result{columns: r.Columns, rows: r.Data} }

func (t *dbTarget) viaResolver(op *dbOp) (result, error) {
	switch op.kind {
	case opPoint:
		r, err := t.res.Query(t.uri+"/"+strconv.FormatInt(op.id, 10), op.columns, "", "")
		if err != nil {
			return result{}, err
		}
		return fromRows(r), nil
	case opPage, opList:
		w, args := op.where()
		r, err := t.res.Query(t.uri, op.columns, w, op.order(), args...)
		if err != nil {
			return result{}, err
		}
		return fromRows(r), nil
	case opUpdate:
		n, err := t.res.Update(t.uri+"/"+strconv.FormatInt(op.id, 10), op.set, "")
		return result{count: n}, err
	}
	if _, err := t.res.Insert(t.uri, op.row); err != nil {
		return result{}, err
	}
	n, err := t.res.Delete(t.uri+"/"+strconv.FormatInt(op.id, 10), "")
	return result{count: n}, err
}

func (t *dbTarget) viaProvider(op *dbOp) (result, error) {
	base, err := provider.ParseURI(t.uri)
	if err != nil {
		return result{}, err
	}
	switch op.kind {
	case opPoint:
		r, err := t.prov.Query(t.caller, base.WithID(op.id), op.columns, "", "")
		if err != nil {
			return result{}, err
		}
		return fromRows(r), nil
	case opPage, opList:
		w, args := op.where()
		r, err := t.prov.Query(t.caller, base, op.columns, w, op.order(), args...)
		if err != nil {
			return result{}, err
		}
		return fromRows(r), nil
	case opUpdate:
		n, err := t.prov.Update(t.caller, base.WithID(op.id), op.set, "")
		return result{count: n}, err
	}
	if _, err := t.prov.Insert(t.caller, base, op.row); err != nil {
		return result{}, err
	}
	n, err := t.prov.Delete(t.caller, base.WithID(op.id), "")
	return result{count: n}, err
}

func (t *dbTarget) viaConn(op *dbOp) (result, error) {
	w, args := op.where()
	switch op.kind {
	case opPoint, opPage, opList:
		r, err := t.conn.Query(t.table, op.columns, w, op.order(), args...)
		if err != nil {
			return result{}, err
		}
		return fromRows(r), nil
	case opUpdate:
		n, err := t.conn.Update(t.table, op.set, w, args...)
		return result{count: n}, err
	}
	if _, err := t.conn.Insert(t.table, op.row); err != nil {
		return result{}, err
	}
	n, err := t.conn.Delete(t.table, w, args...)
	return result{count: n}, err
}

// viaDB issues the statements the COW proxy would run on the caller's
// view, straight at the database.
func (t *dbTarget) viaDB(op *dbOp) (result, error) {
	w, args := op.where()
	switch op.kind {
	case opPoint, opPage, opList:
		cols := "*"
		if len(op.columns) > 0 {
			cols = strings.Join(op.columns, ", ")
		}
		sql := "SELECT " + cols + " FROM " + t.view
		if w != "" {
			sql += " WHERE " + w
		}
		if o := op.order(); o != "" {
			sql += " ORDER BY " + o
		}
		r, err := t.db.Query(sql, args...)
		if err != nil {
			return result{}, err
		}
		return fromRows(r), nil
	case opUpdate:
		cols, vals := sortedValues(op.set)
		sets := make([]string, len(cols))
		for i, c := range cols {
			sets[i] = c + " = ?"
		}
		res, err := t.db.Exec("UPDATE "+t.view+" SET "+strings.Join(sets, ", ")+" WHERE "+w, append(vals, args...)...)
		return result{count: res.RowsAffected}, err
	}
	cols, vals := sortedValues(op.row)
	into, verb := t.table, "INSERT"
	if t.delta != "" {
		into, verb = t.delta, "INSERT OR REPLACE"
		cols = append(cols, "_whiteout")
		vals = append(vals, int64(0))
	}
	marks := strings.TrimSuffix(strings.Repeat("?, ", len(cols)), ", ")
	if _, err := t.db.Exec(verb+" INTO "+into+" ("+strings.Join(cols, ", ")+") VALUES ("+marks+")", vals...); err != nil {
		return result{}, err
	}
	res, err := t.db.Exec("DELETE FROM "+t.view+" WHERE "+w, args...)
	return result{count: res.RowsAffected}, err
}

func sortedValues(v provider.Values) ([]string, []sqldb.Value) {
	cols := make([]string, 0, len(v))
	for c := range v {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	vals := make([]sqldb.Value, len(cols))
	for i, c := range cols {
		vals[i] = v[c]
	}
	return cols, vals
}

// viaGateway issues op as a remote request with the target's token.
func (t *dbTarget) viaGateway(op *dbOp) (result, error) {
	id := "/" + strconv.FormatInt(op.id, 10)
	q := url.Values{}
	if len(op.columns) > 0 {
		q.Set("columns", strings.Join(op.columns, ","))
	}
	switch op.kind {
	case opPoint:
		return t.gwRead(t.gwPath+id, q)
	case opPage:
		q.Set("where", "_id>=? AND _id<?")
		q["arg"] = []string{strconv.FormatInt(op.lo, 10), strconv.FormatInt(op.hi, 10)}
		q.Set("order", "_id")
		return t.gwRead(t.gwPath, q)
	case opList:
		q.Set("order", "_id")
		return t.gwRead(t.gwPath, q)
	case opUpdate:
		body, err := json.Marshal(op.set)
		if err != nil {
			return result{}, err
		}
		return t.gwWrite("PUT", t.gwPath+id, body)
	}
	return result{}, fmt.Errorf("insert+delete is not issued through the gateway")
}

func (t *dbTarget) gwRead(path string, q url.Values) (result, error) {
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	resp, err := t.sys.GatewayRequest(t.token, "GET", path, nil)
	if err != nil {
		return result{}, err
	}
	if resp.Status != 200 {
		return result{}, fmt.Errorf("GET %s: status %d: %s", path, resp.Status, resp.Body)
	}
	return result{body: resp.Body, bytes: len(resp.Body)}, nil
}

// decode parses a gateway response body into columns and rows; results
// from other layers are already decoded.
func (r *result) decode() error {
	if r.body == nil {
		return nil
	}
	cols, rows, err := parseRows(r.body)
	if err != nil {
		return err
	}
	r.columns, r.rows, r.body = cols, rows, nil
	return nil
}

func (t *dbTarget) gwWrite(method, path string, body []byte) (result, error) {
	resp, err := t.sys.GatewayRequest(t.token, method, path, body)
	if err != nil {
		return result{}, err
	}
	if resp.Status < 200 || resp.Status > 299 {
		return result{}, fmt.Errorf("%s %s: status %d: %s", method, path, resp.Status, resp.Body)
	}
	var out struct {
		Count int64 `json:"count"`
	}
	_ = json.Unmarshal(resp.Body, &out)
	return result{count: out.Count, bytes: len(resp.Body)}, nil
}

// fileTarget is one private file seen through a context's mount
// namespace (unionfs) and at its backing path on the global disk (vfs).
type fileTarget struct {
	fs      vfs.FileSystem
	cred    vfs.Cred
	path    string
	disk    vfs.FileSystem
	backing string
}

// read reads the whole file through the namespace, or at the backing
// path on the disk.
func (f *fileTarget) read(disk bool) ([]byte, error) {
	if disk {
		return vfs.ReadFile(f.disk, vfs.Root, f.backing)
	}
	return vfs.ReadFile(f.fs, f.cred, f.path)
}

// overwrite writes data in place at off.
func (f *fileTarget) overwrite(disk bool, off int64, data []byte) error {
	fsys, cred, name := f.fs, f.cred, f.path
	if disk {
		fsys, cred, name = f.disk, vfs.Root, f.backing
	}
	h, err := fsys.Open(cred, name, vfs.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, werr := h.WriteAt(data, off)
	cerr := h.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
