package main

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"maxoid/internal/core"
	mreg "maxoid/internal/metrics"
	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
	"maxoid/internal/wal"
)

// durableMix is write-heavy with a fifth point reads, so a WAL change
// that stalls readers shows; private files are 4 KB and each write
// replaces one whole. No trace gives the write shapes' proportions, so
// the three share the other four fifths equally.
var durableMix = devMix{point: 3, update: 4, insDel: 4, fileWrite: 4, fileSize: chunk, warmOps: 500}

// setupDurable boots a durable device: every mutation of the disk and
// of the provider databases is journaled to a write-ahead log with the
// store's default group commit. The log lives in wal.MemStorage, the
// store's in-memory storage with a crash model: appends, framing and
// group commit are measured, a device's fsync latency is not, because
// on a shared disk it swings by a factor of two within seconds.
func setupDurable(cfg *config, reg *mreg.Registry, tr *tracer) (*instance, error) {
	st := &countingStorage{MemStorage: wal.NewMemStorage()}
	boot := func(reg *mreg.Registry) (*core.System, error) {
		return core.Boot(core.Options{Storage: st, Metrics: reg})
	}
	sys, err := boot(reg)
	if err != nil {
		return nil, err
	}
	inst, err := newDevInstance(cfg, sys, durableMix, "dur", tr)
	if err != nil {
		sys.Shutdown()
		return nil, err
	}
	// The window starts from a compacted store.
	if err := sys.Checkpoint(); err != nil {
		sys.Shutdown()
		return nil, err
	}
	cur := sys
	inst.logBytes = st.logBytes.Load
	inst.checkpoint = sys.Checkpoint
	memCheck := inst.verify
	// After the window the device crashes, losing every byte the store
	// has not synced, and boots again from the same storage: every
	// acknowledged write must be there.
	inst.verify = func() error {
		if err := memCheck(); err != nil {
			return err
		}
		st.Crash(nil)
		cur.Shutdown()
		cur = nil
		re, err := boot(nil)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		cur = re
		for _, c := range inst.clients {
			if err := c.(*devClient).checkDurable(re); err != nil {
				return fmt.Errorf("after reopen: %w", err)
			}
		}
		return nil
	}
	inst.teardown = func(tr *tracer) error {
		if cur == nil {
			return nil
		}
		for i, c := range inst.clients {
			if err := clearDomain(cur, c.(*devClient).who[0].ctx.Package(), tr, -1, int64(i)); err != nil {
				return err
			}
		}
		return nil
	}
	inst.close = func() error {
		if cur != nil {
			cur.Shutdown()
			cur = nil
		}
		return nil
	}
	return inst, nil
}

// checkDurable compares a reopened system with the client's model: the
// last acknowledged value of each hot row in each view, no pool key
// left behind, and every private file as last written.
func (cl *devClient) checkDurable(sys *core.System) error {
	db := sys.UserDict.Proxy().DB()
	for _, d := range cl.who {
		view := d.dict.view
		for _, id := range cl.hot {
			r, err := db.Query("SELECT word, frequency FROM "+view+" WHERE _id = ?", id)
			if err != nil {
				return err
			}
			want := d.rows[id]
			if len(r.Data) != 1 || r.Data[0][0] != want.word || r.Data[0][1] != sqldb.Value(want.freq) {
				return fmt.Errorf("%s row %d reads %v, last acknowledged %+v", view, id, r.Data, want)
			}
		}
		for _, id := range cl.pool {
			r, err := db.Query("SELECT _id FROM "+view+" WHERE _id = ?", id)
			if err != nil {
				return err
			}
			if len(r.Data) != 0 {
				return fmt.Errorf("%s: deleted row %d is back", view, id)
			}
		}
		for f, ft := range d.files {
			data, err := vfs.ReadFile(sys.Disk, vfs.Root, ft.backing)
			if err != nil {
				return err
			}
			if !bytes.Equal(data, d.model[f]) {
				return fmt.Errorf("%s differs from its last acknowledged write", ft.backing)
			}
		}
	}
	return nil
}

// countingStorage is a wal.MemStorage that counts the bytes written to
// the log file, which checkpoints do not take back.
type countingStorage struct {
	*wal.MemStorage
	logBytes atomic.Int64
}

func (s *countingStorage) Create(name string) (wal.File, error) {
	f, err := s.MemStorage.Create(name)
	return s.wrap(name, f), err
}

func (s *countingStorage) Append(name string, validLen int64) (wal.File, error) {
	f, err := s.MemStorage.Append(name, validLen)
	return s.wrap(name, f), err
}

func (s *countingStorage) wrap(name string, f wal.File) wal.File {
	if f == nil || name != "wal" {
		return f
	}
	return countingFile{File: f, n: &s.logBytes}
}

type countingFile struct {
	wal.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}
