// The bridge between the Lab and the on-disk artifact cache: every artifact
// the harness computes flows through cached, which consults the cache (when
// configured), maintains the hit/miss/bypass telemetry, and times every
// recomputation. It never fails — a broken cache entry degrades to a
// recompute, exactly like a cold cache.
package experiments

import (
	"context"
	"time"

	"ispy/internal/artifacts"
	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// key starts an artifact key covering the inputs every per-app artifact
// shares: the workload generation parameters and the profiled input.
func (a *App) key(kind string) *artifacts.Key {
	return artifacts.NewKey(kind, a.Name).
		Params(a.Params).
		Input(workload.DefaultInputFor(a.Params))
}

// simKey is the key of an artifact of the headline simulator configuration.
func (a *App) simKey(kind string) *artifacts.Key { return a.key(kind).SimConfig(a.SimCfg()) }

// optKey is simKey for an artifact of the default analysis options.
func (a *App) optKey(kind string) *artifacts.Key {
	return a.simKey(kind).Options(core.DefaultOptions())
}

// cached is the one artifact lookup: bypass the cache when it is off, else
// serve a hit through load, or compute the artifact (timed) and store it.
// load and store take the lab's context, so a cancelled run stops waiting
// on cache I/O.
func cached[T any](l *Lab, k *artifacts.Key, load func(context.Context, *artifacts.Key) (T, bool),
	store func(context.Context, *artifacts.Key, T), compute func() T) T {
	kind := k.Kind()
	compute = faulted(l, k, compute)
	if !l.cache.Enabled() {
		l.tel.CacheBypass(kind)
		return timed(l, kind, compute)
	}
	if v, ok := load(l.ctx, k); ok {
		l.hit(k)
		return v
	}
	l.tel.CacheMiss(kind)
	v := timed(l, kind, compute)
	store(l.ctx, k, v)
	return v
}

// hit records a cache hit for k.
func (l *Lab) hit(k *artifacts.Key) {
	l.tel.CacheHit(k.Kind())
	l.tel.Progressf("hit      %s", k.Filename())
}

// stats loads the run statistics for k or computes (and stores) them.
func (l *Lab) stats(k *artifacts.Key, compute func() *sim.Stats) *sim.Stats {
	return cached(l, k, l.cache.LoadStats, l.cache.StoreStats, compute)
}

// build loads the analysis build for k or computes and stores it. Cached
// builds carry the injected program and plan counters only (no analysis
// working state); every experiment consumes exactly that subset.
func (l *Lab) build(k *artifacts.Key, compute func() *core.Build) *core.Build {
	return cached(l, k, l.cache.LoadBuild, l.cache.StoreBuild, compute)
}

// faulted interposes the lab's fault injector (when configured) at the
// artifact's compute site — "compute/<kind>/<app>" — so tests can force a
// panic or error into exactly one app's computation. With no injector the
// original closure is returned untouched.
func faulted[T any](l *Lab, k *artifacts.Key, compute func() T) func() T {
	if l.faults == nil {
		return compute
	}
	site := "compute/" + k.Kind() + "/" + k.App()
	return func() T {
		l.faultHit(site)
		return compute()
	}
}

// timed runs compute under the per-artifact wall-time telemetry.
func timed[T any](l *Lab, kind string, compute func() T) T {
	start := time.Now()
	v := compute()
	d := time.Since(start)
	l.tel.ObserveArtifact(kind, d)
	l.tel.Progressf("computed %s in %.2fs", kind, d.Seconds())
	return v
}

// ISPYVariant builds and runs an I-SPY variant reusing the prepared
// evidence; cfg overrides the simulator configuration (HashBits follows
// opt). Both the build and the run are cached per (options, configuration)
// point, making sensitivity sweeps idempotent across harness runs.
func (a *App) ISPYVariant(opt core.Options, cfg sim.Config) (*core.Build, *sim.Stats) {
	if opt.HashBits != 0 {
		cfg.HashBits = opt.HashBits
	}
	b := a.variantBuild(opt)
	k := a.key("ispy-variant-run").SimConfig(a.SimCfg()).Options(opt).SimConfig(cfg)
	st := a.lab.stats(k, func() *sim.Stats { return a.Run(b.Prog, cfg) })
	return b, st
}

// ISPYVariantStats is ISPYVariant for callers that only need the run: on a
// warm cache it serves the statistics without touching the build at all.
func (a *App) ISPYVariantStats(opt core.Options, cfg sim.Config) *sim.Stats {
	if opt.HashBits != 0 {
		cfg.HashBits = opt.HashBits
	}
	k := a.key("ispy-variant-run").SimConfig(a.SimCfg()).Options(opt).SimConfig(cfg)
	return a.lab.stats(k, func() *sim.Stats {
		return a.Run(a.variantBuild(opt).Prog, cfg)
	})
}

func (a *App) variantBuild(opt core.Options) *core.Build {
	k := a.key("ispy-variant-build").SimConfig(a.SimCfg()).Options(opt)
	return a.lab.build(k, func() *core.Build {
		return core.BuildFromPrepared(a.Profile(), a.Prepared(), opt)
	})
}

// FreshVariantStats builds I-SPY from scratch at cfg — required when opt
// moves the prefetch-distance window, which re-labels the contexts the
// shared Prepared evidence bakes in — runs the result under cfg (HashBits
// follows opt), and caches the run. The key folds the build and the run
// configuration separately.
func (a *App) FreshVariantStats(opt core.Options, cfg sim.Config) *sim.Stats {
	runCfg := cfg
	if opt.HashBits != 0 {
		runCfg.HashBits = opt.HashBits
	}
	k := a.key("ispy-fresh-run").SimConfig(cfg).Options(opt).SimConfig(runCfg)
	return a.lab.stats(k, func() *sim.Stats {
		b := core.BuildISPY(a.Profile(), cfg, opt)
		return a.Run(b.Prog, runCfg)
	})
}

// AsmDBAt builds and runs AsmDB at an explicit fan-out threshold (Fig. 3),
// caching both artifacts per threshold.
func (a *App) AsmDBAt(threshold float64) (*core.Build, *sim.Stats) {
	bk := a.key("asmdb-th-build").SimConfig(a.SimCfg()).Options(core.DefaultOptions()).Float(threshold)
	b := a.lab.build(bk, func() *core.Build {
		return asmdb.Build(a.Profile(), threshold, core.DefaultOptions())
	})
	runCfg := asmdb.RunConfig(a.SimCfg())
	rk := a.key("asmdb-th-run").SimConfig(a.SimCfg()).Options(core.DefaultOptions()).Float(threshold).SimConfig(runCfg)
	st := a.lab.stats(rk, func() *sim.Stats { return a.Run(b.Prog, runCfg) })
	return b, st
}

// RunCachedInput simulates the program prog returns under cfg with input
// in, caching the statistics under kind; a hit never calls prog. The program
// itself is not part of the key, so kind must uniquely identify the recipe
// that produced it (e.g. "ispy-drift" for the default I-SPY build run on
// drifted inputs); cfg and in are folded in full, including any
// profile-derived prefetch mask.
func (a *App) RunCachedInput(kind string, prog func() *isa.Program, cfg sim.Config, in workload.Input) *sim.Stats {
	k := artifacts.NewKey(kind, a.Name).Params(a.Params).SimConfig(cfg).Input(in)
	return a.lab.stats(k, func() *sim.Stats { return a.RunInput(prog(), cfg, in) })
}

// prog returns the app's unmodified program.
func (a *App) prog() *isa.Program { return a.Workload().Prog }
