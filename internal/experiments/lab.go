// Package experiments regenerates every table and figure of the paper's
// evaluation (Table I, Figs. 1–21; the per-experiment index lives in
// DESIGN.md §3). Each experiment is a named function over a Lab, which
// lazily computes and memoizes the per-application artifacts most
// experiments share: the baseline and ideal-cache runs, the profile, and the
// AsmDB and I-SPY builds with their evaluation runs. When the Lab is given a
// cache directory, every artifact is additionally persisted on disk
// (internal/artifacts) so repeated harness runs skip recomputation entirely.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ispy/internal/artifacts"
	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/faults"
	"ispy/internal/isa"
	"ispy/internal/metrics"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// Config scales the harness: experiments use MeasureInstrs for headline
// runs and SweepInstrs for multi-configuration sensitivity sweeps.
type Config struct {
	// Apps lists the applications to evaluate (default: all nine).
	Apps []string
	// MeasureInstrs / WarmupInstrs configure headline runs.
	MeasureInstrs uint64
	WarmupInstrs  uint64
	// SweepInstrs / SweepWarmup configure sensitivity-sweep runs.
	SweepInstrs uint64
	SweepWarmup uint64
	// Parallel runs independent work on all cores.
	Parallel bool
	// Jobs bounds the shared worker pool. 0 means GOMAXPROCS when Parallel
	// is set and 1 otherwise; Parallel=false forces 1 regardless.
	Jobs int
	// CacheDir, when non-empty, persists artifacts across runs (see
	// internal/artifacts). Empty disables the on-disk cache.
	CacheDir string
	// Verbose streams per-artifact progress lines to stderr.
	Verbose bool
	// Faults, when non-nil, injects deterministic faults at the harness's
	// tagged sites (artifact-cache I/O, per-artifact compute). Testing only.
	Faults *faults.Injector
}

// DefaultConfig returns the full-fidelity configuration.
func DefaultConfig() Config {
	return Config{
		Apps:          workload.AppNames,
		MeasureInstrs: 1_500_000,
		WarmupInstrs:  300_000,
		SweepInstrs:   800_000,
		SweepWarmup:   200_000,
		Parallel:      true,
	}
}

// QuickConfig returns a reduced configuration for smoke runs. The warmup
// stays near the full configuration's: measuring before the L2 holds the
// live text puts the comparison in a cold-start regime where spray
// prefetching doubles as cache warming (see integration tests).
func QuickConfig() Config {
	return Config{
		Apps:          []string{"wordpress", "tomcat", "verilator"},
		MeasureInstrs: 500_000,
		WarmupInstrs:  250_000,
		SweepInstrs:   300_000,
		SweepWarmup:   200_000,
		Parallel:      true,
	}
}

// WithMeasureInstrs returns a copy of c whose headline budget is n
// instructions, with the warmup and sweep budgets rescaled by the same
// factor so the configuration's warmup/measure and sweep/measure proportions
// are preserved. (Rescaling only the measured budgets would let the fixed
// warmups swallow — or exceed — the measurement window.)
func (c Config) WithMeasureInstrs(n uint64) Config {
	if n == 0 || c.MeasureInstrs == 0 {
		return c
	}
	f := float64(n) / float64(c.MeasureInstrs)
	scale := func(v uint64) uint64 { return uint64(float64(v) * f) }
	out := c
	out.WarmupInstrs = scale(c.WarmupInstrs)
	out.SweepInstrs = scale(c.SweepInstrs)
	out.SweepWarmup = scale(c.SweepWarmup)
	out.MeasureInstrs = n
	return out
}

// Lab owns the per-application artifact memos, the worker pool its cells
// share, the optional on-disk artifact cache, the run telemetry, and the
// run report. The lab's context governs cancellation: when it is cancelled
// (SIGINT, -timeout), cells and attempts that have not started are skipped
// and reported instead of run, and running attempts stop at their next
// computation.
type Lab struct {
	Cfg  Config
	ctx  context.Context
	mu   sync.Mutex
	apps map[string]*App

	pool     *Pool
	tel      *metrics.Telemetry
	report   *Report
	faults   *faults.Injector
	cache    *artifacts.Cache
	cacheErr error
}

// NewLab creates a lab over cfg (zero fields take defaults) that is never
// cancelled.
func NewLab(cfg Config) *Lab { return NewLabContext(context.Background(), cfg) }

// Shared bundles run infrastructure owned by something longer-lived than one
// lab — the analysis server shares one artifact cache and one telemetry
// sink across every concurrent request's lab. Nil fields fall back to
// per-lab defaults (a fresh pool / no cache / a fresh telemetry).
type Shared struct {
	// Pool is the worker pool the lab's cells run on (runCells). Its size
	// caps the lab's parallelism regardless of Config.Jobs.
	Pool *Pool
	// Cache is an already-open artifact cache. The owner is responsible for
	// wiring OnEvict/OnIO/SetFaults once at startup; the lab will not mutate
	// a shared cache's hooks.
	Cache *artifacts.Cache
	// Telemetry aggregates artifact counters across labs.
	Telemetry *metrics.Telemetry
}

// NewLabShared creates a lab over cfg that runs on shared infrastructure
// instead of owning its own: Config.CacheDir and Config.Jobs are ignored in
// favor of sh.Cache and sh.Pool. Cancellation semantics are those of
// NewLabContext.
func NewLabShared(ctx context.Context, cfg Config, sh Shared) *Lab {
	cfg.CacheDir = "" // the shared cache is already open; never reopen it
	l := newLab(ctx, cfg, sh.Pool)
	if sh.Cache != nil {
		l.cache = sh.Cache
	}
	if sh.Telemetry != nil {
		l.tel = sh.Telemetry
	}
	return l
}

// NewLabContext creates a lab whose run is governed by ctx: cancellation
// skips queued work, and the skips are accounted in the run report.
func NewLabContext(ctx context.Context, cfg Config) *Lab {
	l := newLab(ctx, cfg, nil)
	if l.Cfg.CacheDir != "" {
		c, err := artifacts.Open(l.Cfg.CacheDir)
		if err != nil {
			l.cacheErr = err
		} else {
			l.cache = c
			c.OnEvict(func(kind string) { l.tel.CacheEvict(kind) })
			c.SetFaults(l.Cfg.Faults)
		}
	}
	return l
}

// newLab builds the lab core: config defaulting, pool sizing (or adoption of
// a shared pool), telemetry and report plumbing.
func newLab(ctx context.Context, cfg Config, pool *Pool) *Lab {
	d := DefaultConfig()
	if len(cfg.Apps) == 0 {
		cfg.Apps = d.Apps
	}
	if cfg.MeasureInstrs == 0 {
		cfg.MeasureInstrs = d.MeasureInstrs
	}
	if cfg.WarmupInstrs == 0 {
		cfg.WarmupInstrs = d.WarmupInstrs
	}
	if cfg.SweepInstrs == 0 {
		cfg.SweepInstrs = d.SweepInstrs
	}
	if cfg.SweepWarmup == 0 {
		cfg.SweepWarmup = d.SweepWarmup
	}
	if pool == nil {
		// Config.Jobs only sizes pools the lab owns: a shared pool's size
		// is the whole parallelism budget.
		jobs := 1
		if cfg.Parallel {
			jobs = cfg.Jobs
			if jobs <= 0 {
				jobs = runtime.GOMAXPROCS(0)
			}
		}
		pool = NewPool(jobs)
	}
	var out io.Writer
	if cfg.Verbose {
		out = os.Stderr
	}
	return &Lab{
		Cfg:    cfg,
		ctx:    ctx,
		apps:   make(map[string]*App),
		pool:   pool,
		tel:    metrics.NewTelemetry(out),
		report: NewReport(),
		faults: cfg.Faults,
	}
}

// Telemetry returns the lab's run telemetry (never nil).
func (l *Lab) Telemetry() *metrics.Telemetry { return l.tel }

// Report returns the lab's run report (never nil).
func (l *Lab) Report() *Report { return l.report }

// Context returns the context governing the run.
func (l *Lab) Context() context.Context { return l.ctx }

// Attempt runs body on behalf of one app under the named stage, containing
// failure: a panic (a real bug, an injected fault, or the memoized replay of
// an earlier one) or an error return is recorded in the run report — with
// the app, the stage, and the time spent — and returned, instead of
// propagating. If the lab's context is already cancelled the body is not run
// at all; the skip is reported and a *SkipError returned so callers can
// annotate the surviving output. A body the cancellation catches mid-way
// stops at its next computation and is reported the same way.
func (l *Lab) Attempt(app, stage string, body func() error) (err error) {
	if cerr := l.ctx.Err(); cerr != nil {
		l.report.Skip(1, context.Cause(l.ctx))
		return &SkipError{Skipped: 1, Cause: context.Cause(l.ctx)}
	}
	start := time.Now()
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *SkipError:
			// The context ended mid-body (timed): skipped work, not a failure.
			l.report.Skip(r.Skipped, r.Cause)
			err = r
			return
		case *PanicError:
			err = r // replayed panic: keep the original stack
		default:
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		if err != nil {
			l.report.Record(app, stage, err, time.Since(start))
		}
	}()
	return body()
}

// RunExperiments runs specs on one schedule: every experiment starts at
// once, and its cells join the lab's pool as it reaches them, so no slot
// idles at one experiment's barrier while another has work queued. The pool
// still bounds all compute: no experiment computes an artifact outside a
// cell. emit receives each result in specs order, as soon as it and every
// result before it are done, with the time from the start of the run until
// that result was ready. On a sequential pool the experiments run one after
// another. An experiment that has not started when the lab's context is
// cancelled is skipped, counted in the run report, and emits nothing.
func (l *Lab) RunExperiments(specs []Spec, emit func(s Spec, res *Result, ready time.Duration)) {
	start := time.Now()
	run := func(s Spec) (*Result, time.Duration) {
		if l.ctx.Err() != nil {
			l.report.Skip(1, context.Cause(l.ctx))
			return nil, 0
		}
		res := s.Run(l)
		return res, time.Since(start)
	}
	if l.pool.Size() == 1 {
		for _, s := range specs {
			if res, ready := run(s); res != nil {
				emit(s, res, ready)
			}
		}
		return
	}
	type outcome struct {
		res   *Result
		ready time.Duration
	}
	done := make([]chan outcome, len(specs))
	for i, s := range specs {
		done[i] = make(chan outcome, 1)
		go func() {
			res, ready := run(s)
			done[i] <- outcome{res, ready}
		}()
	}
	for i, s := range specs {
		if o := <-done[i]; o.res != nil {
			emit(s, o.res, o.ready)
		}
	}
}

// faultHit evaluates the fault injector (when configured) at a compute site.
// An injected error surfaces as a panic so it flows through exactly the
// containment path a real compute failure takes.
func (l *Lab) faultHit(site string) {
	if l.faults == nil {
		return
	}
	if err := l.faults.Hit(site); err != nil {
		panic(err)
	}
}

// memo is a write-once cell: concurrent callers of get observe exactly one
// evaluation of f. Distinct memos make independent artifacts of one App
// computable in parallel (the old single-mutex design serialized them).
//
// A panicking f is remembered too: every later get replays the original
// panic value instead of silently returning a zero artifact (sync.Once burns
// its ticket on panic), so each experiment that touches a failed artifact
// records the same root cause in the run report.
type memo[T any] struct {
	once     sync.Once
	done     atomic.Bool
	v        T
	panicked any
}

func (m *memo[T]) get(f func() T) T {
	m.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				m.panicked = r
				panic(r)
			}
		}()
		m.v = f()
		m.done.Store(true)
	})
	if r := m.panicked; r != nil {
		panic(r)
	}
	return m.v
}

// peek returns the value without evaluating anything: ok is false until an
// evaluation has returned.
func (m *memo[T]) peek() (v T, ok bool) {
	if m.done.Load() {
		return m.v, true
	}
	return v, false
}

// App bundles one application's memoized artifacts. All getters are safe for
// concurrent use; independent artifacts compute concurrently.
type App struct {
	Name string
	// Params are the app's generation parameters, defaults applied: all that
	// artifact keys and simulator configurations need. The workload itself
	// is generated on first use (Workload), so a lab whose lookups all hit
	// never generates it.
	Params workload.Params
	lab    *Lab

	wl        memo[*workload.Workload]
	base      memo[*sim.Stats]
	ideal     memo[*sim.Stats]
	prof      memo[*profile.Profile]
	asmdbB    memo[*core.Build]
	asmdbPlan memo[core.PlanSummary]
	asmdbStat memo[*sim.Stats]
	ispyB     memo[*core.Build]
	ispyPlan  memo[core.PlanSummary]
	ispyStat  memo[*sim.Stats]
	prepared  memo[*core.Prepared]
	static    memo[uint64]
}

// App returns (creating on first use) the artifacts for name.
func (l *Lab) App(name string) *App {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.apps[name]
	if a == nil {
		a = &App{Name: name, Params: workload.PresetParams(name), lab: l}
		l.apps[name] = a
	}
	return a
}

// Apps returns the lab's applications in configuration order.
func (l *Lab) Apps() []*App {
	out := make([]*App, len(l.Cfg.Apps))
	for i, n := range l.Cfg.Apps {
		out[i] = l.App(n)
	}
	return out
}

// ForEachApp runs f over every configured app through the shared pool,
// containing each app's failure independently: a panicking or erroring app
// is recorded in the run report under stage and does not disturb the others.
func (l *Lab) ForEachApp(stage string, f func(*App) error) {
	var cells []cell
	for _, a := range l.Apps() {
		cells = append(cells, cell{a.Name, stage, func() error { return f(a) }})
	}
	l.runCells(cells)
}

// Workload returns the app's generated workload, generating it on first use.
// Only computations, the profile rebind and figures that read the program
// need it.
func (a *App) Workload() *workload.Workload {
	return a.wl.get(func() *workload.Workload { return workload.Generate(a.Params) })
}

// SimConfig returns the headline simulator configuration at c's measured
// budget for a workload of the given backend CPI.
func (c Config) SimConfig(backendCPI float64) sim.Config {
	s := sim.Default().WithWorkloadCPI(backendCPI)
	s.MaxInstrs = c.MeasureInstrs
	s.WarmupInstrs = c.WarmupInstrs
	return s
}

// SimCfg returns the headline simulator configuration for this app.
func (a *App) SimCfg() sim.Config { return a.lab.Cfg.SimConfig(a.Params.BackendCPI) }

// SweepCfg returns the (cheaper) sweep configuration.
func (a *App) SweepCfg() sim.Config {
	c := a.SimCfg()
	c.MaxInstrs = a.lab.Cfg.SweepInstrs
	c.WarmupInstrs = a.lab.Cfg.SweepWarmup
	return c
}

// Run simulates prog under cfg with the app's default (profiled) input.
func (a *App) Run(prog *isa.Program, cfg sim.Config) *sim.Stats {
	return a.RunInput(prog, cfg, workload.DefaultInputFor(a.Params))
}

// RunInput simulates prog under cfg with an explicit input.
func (a *App) RunInput(prog *isa.Program, cfg sim.Config, in workload.Input) *sim.Stats {
	return sim.Run(prog, workload.NewExecutor(a.Workload(), in), cfg, nil)
}

// Base returns the no-prefetching baseline run. It is the profiling pass's
// run: the profile hooks observe the simulation without changing it, so the
// unmodified program is simulated once per app and budget. The base entry
// still caches it on its own, so a warm lookup never loads the profile.
func (a *App) Base() *sim.Stats {
	return a.base.get(func() *sim.Stats {
		return a.lab.stats(a.simKey("base"), func() *sim.Stats { return a.Profile().Stats })
	})
}

// Ideal returns the ideal-cache (no-miss) run.
func (a *App) Ideal() *sim.Stats {
	return a.ideal.get(func() *sim.Stats {
		cfg := a.SimCfg()
		cfg.Ideal = true
		return a.lab.stats(a.key("ideal").SimConfig(cfg), func() *sim.Stats {
			return a.Run(a.Workload().Prog, cfg)
		})
	})
}

// Profile returns the baseline profiling pass.
func (a *App) Profile() *profile.Profile {
	return a.prof.get(func() *profile.Profile {
		in := workload.DefaultInputFor(a.Params)
		// A cached profile is rebound to the live workload and input.
		load := func(ctx context.Context, k *artifacts.Key) (*profile.Profile, bool) {
			return a.lab.cache.LoadProfile(ctx, k, a.Workload(), in)
		}
		return cached(a.lab, a.simKey("profile"), load, a.lab.cache.StoreProfile, func() *profile.Profile {
			return profile.Collect(a.Workload(), in, a.SimCfg())
		})
	})
}

// asmdbBuild is the AsmDB build at its default threshold.
func (a *App) asmdbBuild() buildRef {
	return buildRef{a.optKey("asmdb-build"), &a.asmdbB, func() *core.Build {
		return asmdb.BuildDefault(a.Profile(), core.DefaultOptions())
	}}
}

// AsmDB returns the AsmDB build at its default threshold.
func (a *App) AsmDB() *core.Build { return a.asmdbBuild().build(a.lab) }

// AsmDBPlan is ISPYPlan for the default AsmDB build.
func (a *App) AsmDBPlan() core.PlanSummary {
	return a.asmdbPlan.get(func() core.PlanSummary { return a.asmdbBuild().plan(a.lab) })
}

// AsmDBStats returns the AsmDB evaluation run (demand-priority prefetch
// inserts; see asmdb.RunConfig).
func (a *App) AsmDBStats() *sim.Stats {
	return a.asmdbStat.get(func() *sim.Stats {
		runCfg := asmdb.RunConfig(a.SimCfg())
		return a.lab.stats(a.optKey("asmdb-run").SimConfig(runCfg), func() *sim.Stats {
			return a.Run(a.AsmDB().Prog, runCfg)
		})
	})
}

// Prepared returns the default-options analysis intermediates (shared by
// sweeps that reuse labeled contexts). The context evidence is an in-memory
// working set, not a persisted artifact: on a warm cache every downstream
// build and run hits, so Prepare is never reached. Its labeling pass
// replays the profile run's trace when the profile was computed in this
// process; a cache-loaded profile is simulated once more to record one.
func (a *App) Prepared() *core.Prepared {
	return a.prepared.get(func() *core.Prepared {
		a.lab.tel.CacheBypass("prepared")
		return timed(a.lab, "prepared", func() *core.Prepared {
			a.lab.faultHit("compute/prepared/" + a.Name)
			return core.Prepare(a.Profile(), a.SimCfg(), core.DefaultOptions())
		})
	})
}

// ispyBuild is the full I-SPY build at default options.
func (a *App) ispyBuild() buildRef {
	return buildRef{a.optKey("ispy-build"), &a.ispyB, func() *core.Build {
		return core.BuildFromPrepared(a.Profile(), a.Prepared(), core.DefaultOptions())
	}}
}

// ISPY returns the full I-SPY build at default options.
func (a *App) ISPY() *core.Build { return a.ispyBuild().build(a.lab) }

// ISPYPlan returns the summary of the default I-SPY build's plan, for
// consumers that read nothing else: from a build already in memory, else
// from the cache entry's plan section (neither the injected program nor
// the prefetch list is built), else from ISPY().Plan.
func (a *App) ISPYPlan() core.PlanSummary {
	return a.ispyPlan.get(func() core.PlanSummary { return a.ispyBuild().plan(a.lab) })
}

// ISPYStats returns the I-SPY evaluation run.
func (a *App) ISPYStats() *sim.Stats {
	return a.ispyStat.get(func() *sim.Stats {
		return a.lab.stats(a.optKey("ispy-run"), func() *sim.Stats {
			return a.Run(a.ISPY().Prog, a.SimCfg())
		})
	})
}

// Warm computes the default artifact set (base, ideal, profile, AsmDB,
// I-SPY and their runs) for all configured apps, submitting each artifact as
// its own pool task so the whole run saturates the pool even with one app.
// A failing artifact is contained per (app, artifact): it is recorded in the
// run report and the remaining apps and artifacts still compute.
func (l *Lab) Warm() {
	var cells []cell
	for _, a := range l.Apps() {
		cells = append(cells,
			cell{a.Name, "warm/base", func() error { a.Base(); return nil }},
			cell{a.Name, "warm/ideal", func() error { a.Ideal(); return nil }},
			cell{a.Name, "warm/asmdb-run", func() error { a.AsmDBStats(); return nil }},
			cell{a.Name, "warm/ispy-run", func() error { a.ISPYStats(); return nil }})
	}
	l.runCells(cells)
}

// Validate checks the configuration: known apps, a warmup that leaves room
// to measure, and a usable cache directory when one was requested.
func (l *Lab) Validate() error {
	if l.cacheErr != nil {
		return fmt.Errorf("experiments: cache: %w", l.cacheErr)
	}
	if l.Cfg.WarmupInstrs >= l.Cfg.MeasureInstrs {
		return fmt.Errorf("experiments: warmup (%d instrs) must be below the measured budget (%d instrs)",
			l.Cfg.WarmupInstrs, l.Cfg.MeasureInstrs)
	}
	if l.Cfg.SweepWarmup >= l.Cfg.SweepInstrs {
		return fmt.Errorf("experiments: sweep warmup (%d instrs) must be below the sweep budget (%d instrs)",
			l.Cfg.SweepWarmup, l.Cfg.SweepInstrs)
	}
	for _, n := range l.Cfg.Apps {
		if _, err := workload.LookupParams(n); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}
