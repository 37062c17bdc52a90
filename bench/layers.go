package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"ispy/internal/artifacts"
	"ispy/internal/asmdb"
	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/experiments"
	"ispy/internal/isa"
	"ispy/internal/lbr"
	"ispy/internal/profile"
	"ispy/internal/server"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

const (
	// traceRounds is how many times the traced run repeats each app's
	// pipeline, its untraced reference and its kernels, alternating which of
	// pipeline and reference goes first, so that no single slow moment of a
	// shared host sets a metric.
	traceRounds = 3
	// serverRounds is how many times the traced run requests each app from
	// the in-process handler, warm.
	serverRounds = 5
)

// runTrace is the traced run. It decomposes the analysis pipeline of each of
// the workload's apps, at ispyd's budget, into the public calls ispyd's
// request path makes; times the simulator kernels at the workload's own
// budget; and times every other layer — traceio, the artifact cache, the
// lab, the server, every experiment and the traffic model — around calls
// from this file. The same suite runs for every workload, so every
// per-layer metric is measured in every traced run; the workload sets the
// kernels' budget and the apps and their order. The spans are written to
// spansPath.
func runTrace(e *env, w workloadSpec, spansPath string) *result {
	r := newResult()
	tr := newTracer(fmt.Sprintf("%s-seed%d", w.name, e.seed))
	lc, kc := quickLab(e), w.budget(e)
	if lc.WarmupInstrs == 0 || kc.WarmupInstrs == 0 {
		r.problem("%s: the modelled caches must warm up before statistics start", w.name)
	}
	cache, err := artifacts.Open(filepath.Join(e.tmp, "trace-cache"))
	r.check(err)
	pool := experiments.NewPool(1)
	apps := w.apps(e)
	ls := layerStats{traced: make([][]time.Duration, len(apps)), reference: make([][]time.Duration, len(apps))}
	for round := 0; round < traceRounds; round++ {
		for i, app := range apps {
			p := tracePipeline(tr, r, lc, app, round, &ls.traced[i], &ls.reference[i])
			if p == nil {
				continue
			}
			if round == 0 {
				ls.count(p)
			}
			traceKernels(tr, r, kc, p, &ls)
			traceCodec(tr, r, p, &ls)
			traceCache(tr, r, cache, p)
			tr.do("experiments.lab", func() {
				l := experiments.NewLabShared(context.Background(), oneApp(lc, app), experiments.Shared{Pool: pool})
				if l.Validate() == nil {
					l.App(app)
				}
			})
		}
	}
	traceServer(e, tr, r, &ls)
	traceExperiments(e, tr, r, &ls)
	traceTraffic(e, tr, r, &ls)
	if err := tr.write(spansPath); err != nil {
		r.problem("writing spans: %v", err)
	} else {
		fmt.Fprintf(e.log, "bench: spans written to %s\n", spansPath)
	}
	ls.report(r, tr, kc, len(apps))
	return r
}

// layerStats accumulates what the traced run counts, next to its spans.
type layerStats struct {
	// traced and reference hold, per app and round, the pipeline stages'
	// self time and the same work run untraced through the lab.
	traced, reference [][]time.Duration

	fastRatios   []float64 // RunReference time / Run time, per app and round
	drained      uint64    // instructions the executor-only drains produced
	traffic      uint64    // instructions the scenario-executor drain produced
	calls        int       // DiscoverContext calls
	adopted      int       // contexts adopted
	instrumented int       // sites the labeling pass instrumented
	prefetches   int
	coalesced    int
	programBytes int     // encoded program bytes, over every round
	profileBytes int     // encoded profile bytes, over every round
	evictions    uint64  // artifact-cache entries evicted as corrupt
	hitRatio     float64 // artifact-cache hits over lookups on the warm lab
	handler      []float64
	http         []float64 // loopback HTTP request latencies
	status       serverCounts
	baseMPKI     []float64
	ispyMPKI     []float64
	speedup      []float64
	accuracy     []float64
}

// serverCounts is the server's own failure counters, as /statusz reports
// them.
type serverCounts struct{ retries, degraded, timeouts, shed uint64 }

// count adds one app's analysis counts and modelled statistics.
func (ls *layerStats) count(p *pipeline) {
	ls.calls += p.calls
	ls.adopted += p.adopted
	ls.instrumented += p.instrumented
	ls.prefetches += len(p.plan.Prefetches)
	for i := range p.plan.Prefetches {
		if len(p.plan.Prefetches[i].Targets) > 1 {
			ls.coalesced++
		}
	}
	ls.baseMPKI = append(ls.baseMPKI, p.base.MPKI())
	ls.ispyMPKI = append(ls.ispyMPKI, p.ispy.MPKI())
	ls.speedup = append(ls.speedup, float64(p.base.Cycles)/float64(p.ispy.Cycles))
	ls.accuracy = append(ls.accuracy, p.ispy.PrefetchAccuracy())
}

// simConfig is the headline simulator configuration the lab derives for w.
func simConfig(w *workload.Workload, lc experiments.Config) sim.Config {
	c := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	c.MaxInstrs = lc.MeasureInstrs
	c.WarmupInstrs = lc.WarmupInstrs
	return c
}

// tracePipeline runs one round of one app: the pipeline at budget lc
// decomposed into spans, and the same work untraced through the lab, in an
// order that alternates with the round. It appends the stages' self time to
// traced and the lab's time to reference, and requires the two to have
// produced the same program and statistics. It returns nil when the lab
// failed.
func tracePipeline(tr *tracer, r *result, lc experiments.Config, app string, round int, traced, reference *[]time.Duration) *pipeline {
	// Host times are kept apart from the analysis results, so the purity
	// pass of ispy-vet can tell that no clock reading reaches a result.
	var p *pipeline
	var lab labRun
	var stages, ref time.Duration
	if round%2 == 0 {
		p, stages = decompose(tr, lc, app)
		lab, ref = runLab(tr, lc, app)
	} else {
		lab, ref = runLab(tr, lc, app)
		p, stages = decompose(tr, lc, app)
	}
	*traced = append(*traced, stages)
	*reference = append(*reference, ref)
	r.check(lab.err)
	if lab.err != nil {
		return nil
	}
	r.check(sameStats(app+": decomposed baseline run", p.base, lab.base))
	r.check(sameStats(app+": decomposed I-SPY run", p.ispy, lab.ispy))
	r.check(sameProgram(app+": decomposed I-SPY program vs core.BuildISPY's", p.prog, lab.build.Prog))
	return p
}

// pipeline is one app's analysis as the traced run computed it.
type pipeline struct {
	app        string
	w          *workload.Workload
	in         workload.Input
	scfg       sim.Config
	prof       *profile.Profile
	plan       *core.Plan
	prog       *isa.Program // the injected program
	base, ispy *sim.Stats

	calls, adopted, instrumented int
}

// decompose runs what ispyd runs for one request — core.Prepare and
// core.BuildFromPrepared stage by stage, with the two simulations around
// them — each call in its own span under a "pipeline/<app>" root. It also
// returns the stage spans' summed self time.
func decompose(tr *tracer, lc experiments.Config, app string) (*pipeline, time.Duration) {
	p := &pipeline{app: app}
	tr.begin("pipeline/" + app)
	tr.do("workload.generate", func() { p.w = workload.Preset(app) })
	w := p.w
	p.in = workload.DefaultInput(w)
	p.scfg = simConfig(w, lc)
	tr.do("sim.run.base", func() { p.base = sim.Run(w.Prog, workload.NewExecutor(w, p.in), p.scfg, nil) })
	tr.do("profile.collect", func() { p.prof = profile.Collect(w, p.in, p.scfg) })

	opt := core.DefaultOptions()
	var choices, needs []core.SiteChoice
	var uncovered uint64
	var targets []profile.Targets
	tr.do("core.select_sites", func() {
		choices, uncovered = core.SelectSites(p.prof.Graph, opt)
		for _, c := range choices {
			if c.Fanout > opt.FanoutEpsilon {
				needs = append(needs, c)
			}
		}
		sites, bySite := core.GroupBySite(needs)
		for _, s := range sites {
			t := profile.Targets{Site: s}
			for _, c := range bySite[s] {
				t.Lines = append(t.Lines, c.Target)
			}
			targets = append(targets, t)
		}
	})
	var cp *profile.ContextProfile
	if len(targets) > 0 {
		tr.do("profile.collect_contexts", func() {
			cp = profile.CollectContexts(w, p.in, p.scfg, targets, opt.MaxDistCycles+opt.CtxWindowSlackCycles)
		})
	}
	contexts := make(map[cfg.LineKey]core.ContextResult)
	tr.do("core.discover", func() {
		opt.BloomDensity = core.AdjustDensity(p.prof.AvgHashDensity, 16, opt.HashBits)
		if cp == nil {
			return
		}
		for _, c := range needs {
			set := cp.Get(c.Site, c.Target)
			if set == nil {
				continue
			}
			p.calls++
			if res := core.DiscoverContext(set, c.Site, opt); res.Conditional() {
				contexts[c.Target] = res
				p.adopted++
			}
		}
	})
	tr.do("core.build_plan", func() {
		p.plan = core.BuildPlan(w.Prog, choices, contexts, p.prof.Graph.TotalMisses, uncovered, opt)
	})
	tr.do("core.apply", func() { p.prog = p.plan.Apply(w.Prog) })
	tr.do("sim.run.ispy", func() { p.ispy = sim.Run(p.prog, workload.NewExecutor(w, p.in), p.scfg, nil) })
	p.instrumented = len(targets)
	return p, tr.endCovered()
}

// labRun is one app's analysis run untraced through the lab, as ispyd's
// request path runs it.
type labRun struct {
	base, ispy *sim.Stats
	build      *core.Build
	err        error
}

// runLab runs one app's analysis through the lab and also returns its time:
// the reference trace.coverage_pct divides by.
func runLab(tr *tracer, lc experiments.Config, app string) (labRun, time.Duration) {
	var l labRun
	d := tr.do("reference/"+app, func() {
		lab := experiments.NewLabContext(context.Background(), oneApp(lc, app))
		if l.err = lab.Validate(); l.err == nil {
			a := lab.App(app)
			l.base, l.build, l.ispy = a.Base(), a.ISPY(), a.ISPYStats()
		}
	})
	return l, d
}

// traceKernels times, at the workload's budget kc, the fast simulation path
// against the frozen reference kernel, the fast path with profiling hooks
// attached, and the executor alone on the same stream, plus the AsmDB build.
func traceKernels(tr *tracer, r *result, kc experiments.Config, p *pipeline, ls *layerStats) {
	w, in, kcfg := p.w, p.in, simConfig(p.w, kc)
	tr.begin("kernels/" + p.app)
	var fast, ref, hooked *sim.Stats
	tFast := tr.do("sim.run", func() { fast = sim.Run(w.Prog, workload.NewExecutor(w, in), kcfg, nil) })
	tRef := tr.do("sim.run_reference", func() { ref = sim.RunReference(w.Prog, workload.NewExecutor(w, in), kcfg, nil) })
	ls.fastRatios = append(ls.fastRatios, float64(tRef)/float64(tFast))
	var events uint64
	hooks := &sim.Hooks{
		OnMiss:  func(int, int32, uint64, *lbr.LBR) { events++ },
		OnBlock: func(int, uint64, *lbr.LBR) { events++ },
	}
	tr.do("sim.run_hooked", func() { hooked = sim.Run(w.Prog, workload.NewExecutor(w, in), kcfg, hooks) })
	tr.do("workload.exec", func() {
		ls.drained += drain(workload.NewExecutor(w, in), w.Prog, kcfg.WarmupInstrs+kcfg.MaxInstrs)
	})
	tr.do("asmdb.build", func() { asmdb.BuildDefault(p.prof, core.DefaultOptions()) })
	tr.end()
	r.check(errors.Join(sameStats(p.app+": sim.Run vs sim.RunReference", fast, ref),
		sameStats(p.app+": sim.Run with hooks vs without", hooked, fast)))
	if events == 0 {
		r.check(fmt.Errorf("%s: the profiling hooks never fired", p.app))
	}
}

// traceCodec round-trips the injected program and the profile through
// traceio.
func traceCodec(tr *tracer, r *result, p *pipeline, ls *layerStats) {
	pd := &traceio.ProfileData{
		WorkloadName: p.w.Name, WorkloadSeed: p.w.Params.Seed, InputName: p.in.Name, InputSeed: p.in.Seed,
		TotalMisses: p.prof.Graph.TotalMisses, AvgHashDensity: p.prof.AvgHashDensity,
		BaseCycles: p.prof.Stats.Cycles, BaseInstrs: p.prof.Stats.BaseInstrs, Graph: p.prof.Graph,
	}
	var prog, prof bytes.Buffer
	var err error
	var decoded *isa.Program
	tr.do("traceio.encode", func() {
		err = errors.Join(traceio.WriteProgram(&prog, p.prog), traceio.WriteProfile(&prof, pd))
	})
	tr.do("traceio.decode", func() {
		var perr error
		decoded, err = traceio.ReadProgram(bytes.NewReader(prog.Bytes()))
		_, perr = traceio.ReadProfile(bytes.NewReader(prof.Bytes()))
		err = errors.Join(err, perr)
	})
	ls.programBytes += prog.Len()
	ls.profileBytes += prof.Len()
	if err == nil {
		err = sameProgram(p.app+": traceio program round trip", p.prog, decoded)
	}
	r.check(err)
}

// traceCache stores the pipeline's artifacts in the cache and loads them
// back; what comes back must be what went in.
func traceCache(tr *tracer, r *result, cache *artifacts.Cache, p *pipeline) {
	ctx := context.Background()
	key := func(kind string) *artifacts.Key {
		return artifacts.NewKey(kind, p.app).Params(p.w.Params).Input(p.in).SimConfig(p.scfg)
	}
	tr.do("artifacts.store", func() {
		cache.StoreProfile(ctx, key("profile"), p.prof)
		cache.StoreBuild(ctx, key("ispy-build"), &core.Build{Prog: p.prog, Plan: p.plan})
		cache.StoreStats(ctx, key("base"), p.base)
		cache.StoreStats(ctx, key("ispy-run"), p.ispy)
	})
	var hit [4]bool
	var build *core.Build
	var base, ispy *sim.Stats
	tr.do("artifacts.load", func() {
		_, hit[0] = cache.LoadProfile(ctx, key("profile"), p.w, p.in)
		build, hit[1] = cache.LoadBuild(ctx, key("ispy-build"))
		base, hit[2] = cache.LoadStats(ctx, key("base"))
		ispy, hit[3] = cache.LoadStats(ctx, key("ispy-run"))
	})
	if hit != [4]bool{true, true, true, true} {
		r.check(fmt.Errorf("%s: artifact loads after stores hit %v", p.app, hit))
		return
	}
	r.check(errors.Join(sameProgram(p.app+": cached program", p.prog, build.Prog),
		sameStats(p.app+": cached baseline", p.base, base), sameStats(p.app+": cached I-SPY run", p.ispy, ispy)))
}

// oneApp is lc for a single app, run sequentially with no artifact cache.
func oneApp(lc experiments.Config, app string) experiments.Config {
	lc.Apps = []string{app}
	lc.Parallel = false
	lc.CacheDir = ""
	return lc
}

// drain pulls blocks from src until they hold n instructions of prog and
// returns the count pulled.
func drain(src sim.BatchSource, prog *isa.Program, n uint64) uint64 {
	ids := make([]int32, 256)
	taken := make([]bool, 256)
	var got uint64
	for got < n {
		k := src.NextN(ids, taken)
		for _, id := range ids[:k] {
			got += uint64(len(prog.Blocks[id].Instrs))
		}
	}
	return got
}

func sameStats(what string, a, b *sim.Stats) error {
	if a == nil || b == nil || !reflect.DeepEqual(*a, *b) {
		return fmt.Errorf("%s: statistics differ", what)
	}
	return nil
}

func sameProgram(what string, a, b *isa.Program) error {
	var x, y bytes.Buffer
	if err := errors.Join(traceio.WriteProgram(&x, a), traceio.WriteProgram(&y, b)); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		return fmt.Errorf("%s: programs differ", what)
	}
	return nil
}

// traceServer runs an in-process server over a fresh artifact cache and
// warms it with one request per app. It then times warm requests through
// the handler directly, and sends e.scale.requests warm requests over
// loopback HTTP one after another, as serve-warm does. Last it reads the
// server's own counters from /statusz.
func traceServer(e *env, tr *tracer, r *result, ls *layerStats) {
	cfg := server.Config{CacheDir: filepath.Join(e.tmp, "trace-server-cache")}
	if e.scale.instrs != 0 {
		cfg.Lab = experiments.QuickConfig().WithMeasureInstrs(e.scale.instrs)
	}
	s, err := server.New(cfg)
	r.check(err)
	if err != nil {
		return
	}
	h := s.Handler()
	hs := httptest.NewServer(h)
	defer hs.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	check := &bodies{e: e}
	apps := e.order(e.scale.apps)
	serve := func(app string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(`{"app":"`+app+`"}`)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serve/%s: in-process status %d: %s", app, rec.Code, rec.Body.String())
		}
		return check.check(app, rec.Body.Bytes())
	}
	tr.begin("server")
	defer tr.end()
	for _, app := range apps {
		var err error
		tr.do("server.cold", func() { err = serve(app) })
		r.check(err)
	}
	for round := 0; round < serverRounds; round++ {
		for _, app := range apps {
			var err error
			ls.handler = append(ls.handler, ms(tr.do("server.handler", func() { err = serve(app) })))
			r.check(err)
		}
	}
	tr.do("server.http", func() {
		for k := 0; k < e.scale.requests && err == nil; k++ {
			began := time.Now()
			err = analyze(c, hs.URL, apps[k%len(apps)], check)
			ls.http = append(ls.http, ms(time.Since(began)))
		}
	})
	r.check(err)
	st, err := status(c, hs.URL)
	r.check(err)
	ls.status = serverCounts{st.Requests.Retries, st.Requests.Degraded, st.Requests.Timeout, st.Requests.Shed}
}

// status reads a server's /statusz.
func status(c *http.Client, url string) (*server.Status, error) {
	resp, err := c.Get(url + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return &st, nil
}

// traceExperiments runs every experiment in `ispy all` order against a fresh
// artifact cache, then all of them again warm against what the first pass
// wrote; the warm outputs must equal the cold ones.
func traceExperiments(e *env, tr *tracer, r *result, ls *layerStats) {
	lc := quickLab(e)
	lc.Apps = e.quickApps()
	lc.CacheDir = filepath.Join(e.tmp, "trace-lab-cache")
	var cold []string
	for pass, prefix := range []string{"experiments.", "experiments.warm/"} {
		lab := experiments.NewLabContext(context.Background(), lc)
		r.check(lab.Validate())
		tr.begin(fmt.Sprintf("experiments/pass%d", pass))
		for i, spec := range experiments.All() {
			var out string
			tr.do(prefix+spec.ID, func() { out = spec.Run(lab).String() })
			if pass == 0 {
				cold = append(cold, out)
			} else if out != cold[i] {
				r.problem("%s: warm output differs from cold", spec.ID)
			}
		}
		tr.end()
		tel := lab.Telemetry()
		ls.evictions += tel.Evictions()
		if !lab.Report().Clean() || tel.Evictions() != 0 {
			r.problem("experiments pass %d: %d artifact-cache evictions; %s", pass, tel.Evictions(), lab.Report().Summary())
		}
		if pass == 1 && tel.Hits()+tel.Misses() > 0 {
			ls.hitRatio = float64(tel.Hits()) / float64(tel.Hits()+tel.Misses())
		}
	}
}

// traceTraffic composes batch-all's scenario, builds its merged world,
// drains the scenario executor, and runs the scenario against the cache the
// experiments wrote, as `ispy -scenario` after `ispy all` does.
func traceTraffic(e *env, tr *tracer, r *result, ls *layerStats) {
	spec, err := traffic.ParseSpec(e.scenarioSpec())
	r.check(err)
	if err != nil {
		return
	}
	lc := quickLab(e)
	lc.CacheDir = filepath.Join(e.tmp, "trace-lab-cache")
	tr.begin("traffic")
	defer tr.end()
	var trc *traceio.ScenarioTrace
	tr.do("traffic.compose", func() { trc = traffic.Compose(spec) })
	var world *traffic.World
	tr.do("traffic.build_world", func() { world, err = traffic.BuildWorld(spec) })
	r.check(err)
	if err != nil {
		return
	}
	tr.do("traffic.exec", func() {
		var ex *traffic.Executor
		if ex, err = traffic.NewExecutor(world, trc); err == nil {
			ls.traffic = drain(ex, world.Prog, lc.WarmupInstrs+lc.MeasureInstrs)
		}
	})
	r.check(err)
	var res *experiments.ScenarioResult
	tr.do("traffic.scenario_run", func() {
		lab := experiments.NewLabContext(context.Background(), lc)
		if err = lab.Validate(); err == nil {
			res, err = lab.Scenario(spec)
		}
	})
	r.check(err)
	if res != nil && e.seed == defaultSeed {
		r.check(e.checkDigest("batch-all/scenario", []byte(res.Render())))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report derives the per-layer metrics; kc is the kernels' budget. Times
// are per traced app and round unless a name says otherwise; counts are
// summed over the traced apps.
func (ls *layerStats) report(r *result, tr *tracer, kc experiments.Config, napps int) {
	self := tr.self()
	runs := napps * traceRounds
	perRun := func(name string) float64 { return ms(self[name]) / float64(runs) }
	stream := float64(kc.WarmupInstrs+kc.MeasureInstrs) * float64(runs)
	for _, n := range []string{"workload.generate", "profile.collect", "profile.collect_contexts",
		"core.select_sites", "core.discover", "core.build_plan", "core.apply", "asmdb.build",
		"artifacts.store", "artifacts.load"} {
		r.set(n+"_ms", perRun(n), "ms", runs)
	}
	r.set("experiments.lab_overhead_ms", perRun("experiments.lab"), "ms", runs)
	r.set("workload.exec_minstr_per_s", float64(ls.drained)/1e6/self["workload.exec"].Seconds(), "Minstr/s", runs)
	r.set("sim.run_minstr_per_s", stream/1e6/self["sim.run"].Seconds(), "Minstr/s", runs)
	r.set("sim.hooked_minstr_per_s", stream/1e6/self["sim.run_hooked"].Seconds(), "Minstr/s", runs)
	r.set("sim.self_ms", perRun("sim.run")-perRun("workload.exec"), "ms", runs)
	r.set("sim.fastpath_ratio", median(ls.fastRatios), "ratio", len(ls.fastRatios))
	r.set("core.discover_calls", float64(ls.calls), "count", napps)
	ratio := 0.0
	if ls.calls > 0 {
		ratio = float64(ls.adopted) / float64(ls.calls)
	}
	r.set("core.conditional_ratio", ratio, "ratio", napps)
	r.set("core.prefetches", float64(ls.prefetches), "count", napps)
	r.set("core.coalesced", float64(ls.coalesced), "count", napps)
	r.set("profile.sites_instrumented", float64(ls.instrumented), "count", napps)
	mb := float64(ls.programBytes+ls.profileBytes) / 1e6
	r.set("traceio.encode_mb_per_s", mb/self["traceio.encode"].Seconds(), "MB/s", runs)
	r.set("traceio.decode_mb_per_s", mb/self["traceio.decode"].Seconds(), "MB/s", runs)
	r.set("traceio.program_bytes", float64(ls.programBytes/traceRounds), "bytes", napps)
	r.set("traceio.profile_bytes", float64(ls.profileBytes/traceRounds), "bytes", napps)
	r.set("artifacts.hit_ratio", ls.hitRatio, "ratio", 1)
	r.set("artifacts.evictions", float64(ls.evictions), "count", 2)
	for _, spec := range experiments.All() {
		r.set("experiments."+spec.ID+"_ms", ms(self["experiments."+spec.ID]), "ms", 1)
	}
	warm := 0.0
	for _, spec := range experiments.All() {
		warm += ms(self["experiments.warm/"+spec.ID])
	}
	r.set("experiments.warm_all_ms", warm, "ms", 1)
	r.set("server.handler_p50_ms", median(ls.handler), "ms", len(ls.handler))
	r.set("server.http_overhead_ms", median(ls.http)-median(ls.handler), "ms", len(ls.http))
	for _, c := range []struct {
		name string
		n    uint64
	}{{"retries", ls.status.retries}, {"degraded", ls.status.degraded}, {"timeouts", ls.status.timeouts}, {"shed", ls.status.shed}} {
		r.set("server."+c.name, float64(c.n), "count", 1)
	}
	for _, n := range []string{"traffic.compose", "traffic.build_world", "traffic.scenario_run"} {
		r.set(n+"_ms", ms(self[n]), "ms", 1)
	}
	r.set("traffic.exec_minstr_per_s", float64(ls.traffic)/1e6/self["traffic.exec"].Seconds(), "Minstr/s", 1)
	r.set("model.base_mpki", mean(ls.baseMPKI), "MPKI", napps)
	r.set("model.ispy_mpki", mean(ls.ispyMPKI), "MPKI", napps)
	r.set("model.ispy_speedup", mean(ls.speedup), "ratio", napps)
	r.set("model.prefetch_accuracy", mean(ls.accuracy), "ratio", napps)
	var traced, reference time.Duration
	for i := range ls.traced {
		traced += medianDuration(ls.traced[i])
		reference += medianDuration(ls.reference[i])
	}
	coverage := 0.0
	if reference > 0 {
		coverage = 100 * traced.Seconds() / reference.Seconds()
	}
	r.set("trace.coverage_pct", coverage, "%", runs)
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
