package main

import (
	"fmt"
	"math/rand"

	"maxoid/internal/ams"
	"maxoid/internal/binder"
	"maxoid/internal/core"
	"maxoid/internal/intent"
	"maxoid/internal/vfs"
)

// plainApp is an installed package whose code does nothing on start:
// the benchmark drives its context directly.
type plainApp struct{ pkg string }

func (a plainApp) Package() string                           { return a.pkg }
func (a plainApp) OnStart(*ams.Context, intent.Intent) error { return nil }

func install(sys *core.System, app ams.App) error {
	return sys.Install(app, ams.Manifest{Package: app.Package()})
}

// callerOf is the Binder identity a context's own Resolver carries.
func callerOf(ctx *ams.Context) binder.Caller {
	return binder.Caller{PID: ctx.PID(), UID: ctx.Cred().UID, Task: ctx.Task()}
}

// seedRand derives a stream's generator from the run's seed, so every
// input is a function of --seed alone.
func seedRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// randomBytes returns n bytes drawn from rng.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// writePrivate creates files under dir through ctx's namespace.
func writePrivate(ctx *ams.Context, dir string, files [][]byte) error {
	for i, data := range files {
		if err := vfs.WriteFile(ctx.FS(), ctx.Cred(), fmt.Sprintf("%s/f%02d", dir, i), data, 0o600); err != nil {
			return err
		}
	}
	return nil
}
