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

// buildRef is one analysis build: its key, the memo that holds it once read
// or computed, and its recipe. Cached builds carry the injected program and
// the plan only (no analysis working state); every experiment consumes
// exactly that subset, and most read only the plan.
type buildRef struct {
	key     *artifacts.Key
	memo    *memo[*core.Build]
	compute func() *core.Build
}

// build returns the build: from memory, else the cache entry, else
// computed (and stored).
func (r buildRef) build(l *Lab) *core.Build {
	return r.memo.get(func() *core.Build {
		return cached(l, r.key, l.cache.LoadBuild, l.cache.StoreBuild, r.compute)
	})
}

// plan returns the build's plan, reading as little as it can: from the
// build when it is in memory, else from the plan section of the cache entry
// (the injected program is never decoded), else from the computed build.
// It is the one plan-only lookup for every build kind.
func (r buildRef) plan(l *Lab) *core.Plan {
	if b, ok := r.memo.peek(); ok {
		return b.Plan
	}
	if p, ok := l.cache.LoadPlan(l.ctx, r.key); ok {
		l.hit(r.key)
		return p
	}
	return r.build(l).Plan
}

// staticIncrease is the static code-footprint increase (Figs. 4, 14, 21)
// of a build of this app run under opt, priced from its plan alone
// (core.Plan.PrefetchBytes) over the unmodified program's size.
func (a *App) staticIncrease(p *core.Plan, opt core.Options) float64 {
	base := a.staticBytes()
	if base == 0 {
		return 0
	}
	return float64(p.PrefetchBytes(opt)) / float64(base)
}

// staticBytes is the unmodified program's static size, computed once per
// app. Its entry is keyed by the parameters alone, of which the program is
// a pure function, so a hit generates no workload.
func (a *App) staticBytes() uint64 {
	return a.static.get(func() uint64 {
		return cached(a.lab, a.staticKey(), a.lab.cache.LoadUint, a.lab.cache.StoreUint, func() uint64 {
			return a.prog().StaticBytes()
		})
	})
}

// staticKey is staticBytes's key.
func (a *App) staticKey() *artifacts.Key {
	return artifacts.NewKey("static-size", a.Name).Params(a.Params)
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

// timed runs compute under the per-artifact wall-time telemetry. Once the
// lab's context is done it computes nothing and panics with a *SkipError,
// which Attempt counts as skipped work: an abandoned run stops at its next
// computation instead of finishing work no one will read.
func timed[T any](l *Lab, kind string, compute func() T) T {
	if l.ctx.Err() != nil {
		panic(&SkipError{Skipped: 1, Cause: context.Cause(l.ctx)})
	}
	start := time.Now()
	v := compute()
	d := time.Since(start)
	l.tel.ObserveArtifact(kind, d)
	l.tel.Progressf("computed %s in %.2fs", kind, d.Seconds())
	return v
}

// ISPYVariant returns the plan and the run of an I-SPY variant built from
// the prepared evidence; cfg overrides the simulator configuration
// (HashBits follows opt). Both the build and the run are cached per
// (options, configuration) point, making sensitivity sweeps idempotent
// across harness runs. On a warm cache the injected program is never
// decoded.
func (a *App) ISPYVariant(opt core.Options, cfg sim.Config) (*core.Plan, *sim.Stats) {
	b := a.variantBuild(opt)
	st := a.variantStats(b, opt, cfg)
	return b.plan(a.lab), st
}

// ISPYVariantStats is ISPYVariant for callers that only need the run: on a
// warm cache it serves the statistics without touching the build at all.
func (a *App) ISPYVariantStats(opt core.Options, cfg sim.Config) *sim.Stats {
	return a.variantStats(a.variantBuild(opt), opt, cfg)
}

func (a *App) variantStats(b buildRef, opt core.Options, cfg sim.Config) *sim.Stats {
	k, cfg := a.variantRun(opt, cfg)
	return a.lab.stats(k, func() *sim.Stats { return a.Run(b.build(a.lab).Prog, cfg) })
}

// variantBuild is an I-SPY variant's build. Only the caller holds it:
// variants are many, and their runs are cached on their own.
func (a *App) variantBuild(opt core.Options) buildRef {
	k := a.key("ispy-variant-build").SimConfig(a.SimCfg()).Options(opt)
	return buildRef{k, new(memo[*core.Build]), func() *core.Build {
		return core.BuildFromPrepared(a.Profile(), a.Prepared(), opt)
	}}
}

// variantRun returns the key and the configuration of a variant's run
// under cfg, whose HashBits follows opt.
func (a *App) variantRun(opt core.Options, cfg sim.Config) (*artifacts.Key, sim.Config) {
	if opt.HashBits != 0 {
		cfg.HashBits = opt.HashBits
	}
	return a.key("ispy-variant-run").SimConfig(a.SimCfg()).Options(opt).SimConfig(cfg), cfg
}

// FreshVariantStats builds I-SPY from scratch at cfg — required when opt
// moves the prefetch-distance window, which re-labels the contexts the
// shared Prepared evidence bakes in — runs the result under cfg (HashBits
// follows opt), and caches the run.
func (a *App) FreshVariantStats(opt core.Options, cfg sim.Config) *sim.Stats {
	k, runCfg := a.freshRun(opt, cfg)
	return a.lab.stats(k, func() *sim.Stats {
		b := core.BuildISPY(a.Profile(), cfg, opt)
		return a.Run(b.Prog, runCfg)
	})
}

// freshRun returns the key and the run configuration of a fresh variant
// built at cfg. The key folds the build and the run configuration
// separately.
func (a *App) freshRun(opt core.Options, cfg sim.Config) (*artifacts.Key, sim.Config) {
	runCfg := cfg
	if opt.HashBits != 0 {
		runCfg.HashBits = opt.HashBits
	}
	return a.key("ispy-fresh-run").SimConfig(cfg).Options(opt).SimConfig(runCfg), runCfg
}

// AsmDBAt returns the plan and the run of AsmDB at an explicit fan-out
// threshold (Fig. 3), caching both artifacts per threshold. The default
// threshold is the headline AsmDB build and run.
func (a *App) AsmDBAt(threshold float64) (*core.Plan, *sim.Stats) {
	if threshold == asmdb.DefaultFanoutThreshold {
		return a.AsmDBPlan(), a.AsmDBStats()
	}
	b := a.asmdbAtBuild(threshold)
	k, runCfg := a.asmdbAtRun(threshold)
	st := a.lab.stats(k, func() *sim.Stats { return a.Run(b.build(a.lab).Prog, runCfg) })
	return b.plan(a.lab), st
}

// asmdbAtBuild is the AsmDB build at threshold; only the caller holds it.
func (a *App) asmdbAtBuild(threshold float64) buildRef {
	k := a.key("asmdb-th-build").SimConfig(a.SimCfg()).Options(core.DefaultOptions()).Float(threshold)
	return buildRef{k, new(memo[*core.Build]), func() *core.Build {
		return asmdb.Build(a.Profile(), threshold, core.DefaultOptions())
	}}
}

// asmdbAtRun returns the key and the configuration of that build's run.
func (a *App) asmdbAtRun(threshold float64) (*artifacts.Key, sim.Config) {
	runCfg := asmdb.RunConfig(a.SimCfg())
	return a.key("asmdb-th-run").SimConfig(a.SimCfg()).Options(core.DefaultOptions()).Float(threshold).SimConfig(runCfg), runCfg
}

// NonContiguousStats runs the unmodified program under the Non-contiguous-N
// window prefetcher (Fig. 5), gated by the mask asmdb.NonContiguousMask
// derives from the app's profile. A hit loads no profile (see
// nonContiguousKey).
func (a *App) NonContiguousStats(window int) *sim.Stats {
	return a.lab.stats(a.nonContiguousKey(window), func() *sim.Stats {
		return a.Run(a.prog(), asmdb.NonContiguousConfig(a.SimCfg(), a.Profile(), window))
	})
}

// nonContiguousKey names the Non-contiguous-N run by its mask's recipe
// instead of folding the mask's contents: asmdb.NonContiguousMask over the
// profiled run, plus the window. That is sound because the key also folds
// every input of the profile (the parameters, the profiled input and the
// headline budget), and the configuration is Contiguous-N's, which is
// Non-contiguous-N's minus the mask.
func (a *App) nonContiguousKey(window int) *artifacts.Key {
	return a.key("hwpf-run").SimConfig(asmdb.ContiguousConfig(a.SimCfg(), window)).
		Str("asmdb.NonContiguousMask(profile)").Int(int64(window))
}

// RunCachedInput simulates the program prog returns under cfg with input
// in, caching the statistics under kind; a hit never calls prog. The program
// itself is not part of the key, so kind must uniquely identify the recipe
// that produced it (e.g. "ispy-drift" for the default I-SPY build run on
// drifted inputs); cfg and in are folded in full, including any
// profile-derived prefetch mask.
func (a *App) RunCachedInput(kind string, prog func() *isa.Program, cfg sim.Config, in workload.Input) *sim.Stats {
	return a.lab.stats(a.inputKey(kind, cfg, in), func() *sim.Stats { return a.RunInput(prog(), cfg, in) })
}

// inputKey is RunCachedInput's key.
func (a *App) inputKey(kind string, cfg sim.Config, in workload.Input) *artifacts.Key {
	return artifacts.NewKey(kind, a.Name).Params(a.Params).SimConfig(cfg).Input(in)
}

// prog returns the app's unmodified program.
func (a *App) prog() *isa.Program { return a.Workload().Prog }
