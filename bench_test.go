// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §3 for the index), plus ablation
// benchmarks for the design choices the paper motivates. Each benchmark
// regenerates its artifact and reports the headline numbers as custom
// benchmark metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation and records paper-vs-measured data in one run.
//
// Benchmarks share a lazily-warmed Lab: profiling runs, analysis builds and
// headline simulations are computed once and reused, so per-benchmark time
// reflects the work unique to that experiment.
package ispy_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ispy/internal/core"
	"ispy/internal/experiments"
	"ispy/internal/isa"
	"ispy/internal/metrics"
	"ispy/internal/profile"
	"ispy/internal/server"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

// benchLab uses moderately reduced budgets so the full suite completes in
// minutes while keeping all nine applications.
func benchLab() *experiments.Lab {
	labOnce.Do(func() {
		lab = experiments.NewLab(experiments.Config{
			Apps:          workload.AppNames,
			MeasureInstrs: 1_000_000,
			WarmupInstrs:  250_000,
			SweepInstrs:   400_000,
			SweepWarmup:   100_000,
			Parallel:      true,
		})
	})
	return lab
}

// runExperiment executes the experiment once per benchmark iteration and
// surfaces its measured headline as a log line on the first iteration.
func runExperiment(b *testing.B, id string) {
	spec, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	l := benchLab()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = spec.Run(l)
	}
	if res != nil {
		b.Logf("%s: %s", id, res.Measured)
	}
}

func BenchmarkTable1SystemConfig(b *testing.B)        { runExperiment(b, "table1") }
func BenchmarkFig1FrontendBound(b *testing.B)         { runExperiment(b, "fig1") }
func BenchmarkFig3FanoutTradeoff(b *testing.B)        { runExperiment(b, "fig3") }
func BenchmarkFig4AsmDBFootprint(b *testing.B)        { runExperiment(b, "fig4") }
func BenchmarkFig5WindowPrefetch(b *testing.B)        { runExperiment(b, "fig5") }
func BenchmarkFig10Speedup(b *testing.B)              { runExperiment(b, "fig10") }
func BenchmarkFig11MPKI(b *testing.B)                 { runExperiment(b, "fig11") }
func BenchmarkFig12Ablation(b *testing.B)             { runExperiment(b, "fig12") }
func BenchmarkFig13Accuracy(b *testing.B)             { runExperiment(b, "fig13") }
func BenchmarkFig14StaticFootprint(b *testing.B)      { runExperiment(b, "fig14") }
func BenchmarkFig15DynamicFootprint(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16InputGeneralization(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFig17ContextPredecessors(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkFig18PrefetchDistance(b *testing.B)     { runExperiment(b, "fig18") }
func BenchmarkFig19CoalescingSize(b *testing.B)       { runExperiment(b, "fig19") }
func BenchmarkFig20CoalesceDistribution(b *testing.B) { runExperiment(b, "fig20") }
func BenchmarkFig21ContextHashSize(b *testing.B)      { runExperiment(b, "fig21") }

// BenchmarkAblationInsertPriority quantifies §III-B's replacement-policy
// choice: prefetched lines inserted at half priority vs at MRU (like demand
// loads). The half-priority speedup advantage is reported as a metric.
func BenchmarkAblationInsertPriority(b *testing.B) {
	l := benchLab()
	a := l.App("wordpress")
	base := a.Base()
	build := a.ISPY()

	var halfCycles, mruCycles uint64
	for i := 0; i < b.N; i++ {
		cfgHalf := a.SimCfg()
		half := a.Run(build.Prog, cfgHalf)
		cfgMRU := a.SimCfg()
		cfgMRU.Hier.PrefetchAtMRU = true
		mru := a.Run(build.Prog, cfgMRU)
		halfCycles, mruCycles = half.Cycles, mru.Cycles
	}
	b.ReportMetric(metrics.SpeedupPct(base.Cycles, halfCycles), "half-speedup-%")
	b.ReportMetric(metrics.SpeedupPct(base.Cycles, mruCycles), "mru-speedup-%")
}

// BenchmarkAblationConditionalOnly and ...CoalescingOnly time the two
// technique-isolated variants (the builds behind Fig. 12) on one app.
func BenchmarkAblationConditionalOnly(b *testing.B) {
	l := benchLab()
	a := l.App("wordpress")
	opt := core.DefaultOptions()
	opt.Coalesce = false
	var st *sim.Stats
	for i := 0; i < b.N; i++ {
		_, st = a.ISPYVariant(opt, a.SimCfg())
	}
	b.ReportMetric(metrics.SpeedupPct(a.Base().Cycles, st.Cycles), "speedup-%")
}

func BenchmarkAblationCoalescingOnly(b *testing.B) {
	l := benchLab()
	a := l.App("wordpress")
	opt := core.DefaultOptions()
	opt.Conditional = false
	var st *sim.Stats
	for i := 0; i < b.N; i++ {
		_, st = a.ISPYVariant(opt, a.SimCfg())
	}
	b.ReportMetric(metrics.SpeedupPct(a.Base().Cycles, st.Cycles), "speedup-%")
}

// benchSimThroughput times one kernel on one app preset and reports
// simulated workload instructions per wall-clock second, the figure of
// merit for the substrate itself. Both kernels run the same seeded stream,
// so fast-vs-reference ratios are apples to apples. Each op simulates 4M
// instructions so that per-run setup (cache allocation, plan building)
// amortizes away and the metric reflects steady-state throughput.
func benchSimThroughput(b *testing.B, app string, kernel func(*isa.Program, sim.BlockSource, sim.Config, *sim.Hooks) *sim.Stats) {
	w := workload.Preset(app)
	cfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	cfg.MaxInstrs = 4_000_000
	cfg.WarmupInstrs = 0
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		st := kernel(w.Prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
		instrs += st.BaseInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimulatorThroughput measures the fast-path kernel's raw
// simulation speed on every app preset.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, name := range workload.AppNames {
		name := name
		b.Run(name, func(b *testing.B) { benchSimThroughput(b, name, sim.Run) })
	}
}

// BenchmarkSimulatorReference times the golden reference kernel on the
// default preset; the ratio against BenchmarkSimulatorThroughput/wordpress
// is the fast path's speedup.
func BenchmarkSimulatorReference(b *testing.B) {
	benchSimThroughput(b, "wordpress", sim.RunReference)
}

// BenchmarkAnalysisPipeline times the offline analysis alone (profile in
// hand → injected binary), the cost a build system would pay.
func BenchmarkAnalysisPipeline(b *testing.B) {
	l := benchLab()
	a := l.App("wordpress")
	prof := a.Profile()
	prep := a.Prepared()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build := core.BuildFromPrepared(prof, prep, core.DefaultOptions())
		if build.Prog.TextSize == 0 {
			b.Fatal("empty build")
		}
	}
}

// BenchmarkLabelingPass times the §III-A context-labeling pass alone on
// each of the nine presets at the quick budget (500k measured after 250k of
// warmup), instrumenting the sites the default SelectSites chooses, as
// core.Prepare does. Profiling and site selection run once, untimed.
// "replay" is the production path, Label replaying the profile's own trace,
// and reports the trace's size per measured block; "fallback" labels
// without a trace, as for a cache-loaded or uploaded profile: one
// simulation records a trace, then it is replayed.
func BenchmarkLabelingPass(b *testing.B) {
	type pass struct {
		p       *profile.Profile
		scfg    sim.Config
		targets []profile.Targets
	}
	opt := core.DefaultOptions()
	window := opt.MaxDistCycles + opt.CtxWindowSlackCycles
	var passes []pass
	for _, app := range workload.AppNames {
		w := workload.Preset(app)
		scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
		scfg.MaxInstrs, scfg.WarmupInstrs = 500_000, 250_000
		p := profile.Collect(w, workload.DefaultInput(w), scfg)
		choices, _ := core.SelectSites(p.Graph, opt)
		var needs []core.SiteChoice
		for _, c := range choices {
			if c.Fanout > opt.FanoutEpsilon {
				needs = append(needs, c)
			}
		}
		passes = append(passes, pass{p, scfg, core.LabelTargets(needs)})
	}
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range passes {
				p.p.Label(p.scfg, p.targets, window)
			}
		}
		var size, blocks uint64
		for _, p := range passes {
			size += uint64(p.p.TraceBytes())
			blocks += p.p.Stats.Blocks
		}
		b.ReportMetric(float64(size)/float64(blocks), "trace-B/block")
	})
	b.Run("fallback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range passes {
				profile.CollectContexts(p.p.Workload, p.p.Input, p.scfg, p.targets, window)
			}
		}
	})
}

// BenchmarkProfileCollect times profile.Collect, the profiling run with
// its hooks, on each of the nine presets at the quick budget (500k
// measured after 250k of warmup). Its custom metric is the size of the
// record the miss histories are windows into, per sampled history.
func BenchmarkProfileCollect(b *testing.B) {
	var ws []*workload.Workload
	for _, app := range workload.AppNames {
		ws = append(ws, workload.Preset(app))
	}
	b.ReportAllocs()
	b.ResetTimer()
	ps := make([]*profile.Profile, len(ws))
	for i := 0; i < b.N; i++ {
		for j, w := range ws {
			scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
			scfg.MaxInstrs, scfg.WarmupInstrs = 500_000, 250_000
			ps[j] = profile.Collect(w, workload.DefaultInput(w), scfg)
		}
	}
	b.StopTimer()
	var size, samples int
	for _, p := range ps {
		size += p.HistoryBytes()
		for _, s := range p.Graph.Sites {
			samples += len(s.Samples)
		}
	}
	b.ReportMetric(float64(size)/float64(samples), "hist-B/sample")
}

// BenchmarkDecodePlan times the two reads of an injection plan's cache
// section, on wordpress's default I-SPY plan at the quick budget (500k
// measured after 250k of warmup), built once, untimed: "full" builds the
// plan with its prefetch list (traceio.DecodePlan, which LoadBuild calls);
// "summary" reads only its summary (traceio.DecodePlanSummary, the
// plan-only read). Both report the section's size and prefetch count.
func BenchmarkDecodePlan(b *testing.B) {
	w := workload.Preset("wordpress")
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs, scfg.WarmupInstrs = 500_000, 250_000
	plan := core.BuildISPY(profile.Collect(w, workload.DefaultInput(w), scfg), scfg, core.DefaultOptions()).Plan
	enc := traceio.AppendPlan(nil, plan)
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(enc)), "section-B")
		b.ReportMetric(float64(len(plan.Prefetches)), "prefetches")
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := traceio.DecodePlan(enc)
			if err != nil || len(p.Prefetches) != len(plan.Prefetches) {
				b.Fatalf("DecodePlan: %v", err)
			}
		}
		report(b)
	})
	b.Run("summary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := traceio.DecodePlanSummary(enc)
			if err != nil || s.Prefetches != len(plan.Prefetches) {
				b.Fatalf("DecodePlanSummary: %v", err)
			}
		}
		report(b)
	})
}

// benchServe times ispyd rounds in process: one op is nine analyze
// requests, one per app, through server.Handler() at the server's default
// budget. Every response must equal the untimed first round's.
func benchServe(b *testing.B, cfg server.Config) {
	b.ReportAllocs()
	s, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	analyze := func(app string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(`{"app":"`+app+`"}`)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", app, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	first := make(map[string][]byte, len(workload.AppNames))
	for _, app := range workload.AppNames {
		first[app] = analyze(app)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, app := range workload.AppNames {
			if !bytes.Equal(analyze(app), first[app]) {
				b.Fatalf("%s: response differs from the first round's", app)
			}
		}
	}
}

// BenchmarkServeWarm times warm rounds: the first round fills an artifact
// cache, so every timed request is a hit.
func BenchmarkServeWarm(b *testing.B) { benchServe(b, server.Config{CacheDir: b.TempDir()}) }

// BenchmarkServeCold times cold rounds: with no artifact cache, every
// request runs the whole pipeline, as the serve-cold workload's do.
func BenchmarkServeCold(b *testing.B) { benchServe(b, server.Config{}) }

// TestBenchmarkNamesMatchDesignDoc keeps DESIGN.md's per-experiment index
// honest: every fig/table has a same-named benchmark in this file.
func TestBenchmarkNamesMatchDesignDoc(t *testing.T) {
	for _, s := range experiments.All() {
		id := s.ID
		found := false
		for _, name := range benchNames {
			if strings.Contains(strings.ToLower(name), strings.ToLower(id)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("experiment %s has no benchmark", id)
		}
	}
}

var benchNames = []string{
	"BenchmarkTable1SystemConfig",
	"BenchmarkFig1FrontendBound",
	"BenchmarkFig3FanoutTradeoff",
	"BenchmarkFig4AsmDBFootprint",
	"BenchmarkFig5WindowPrefetch",
	"BenchmarkFig10Speedup",
	"BenchmarkFig11MPKI",
	"BenchmarkFig12Ablation",
	"BenchmarkFig13Accuracy",
	"BenchmarkFig14StaticFootprint",
	"BenchmarkFig15DynamicFootprint",
	"BenchmarkFig16InputGeneralization",
	"BenchmarkFig17ContextPredecessors",
	"BenchmarkFig18PrefetchDistance",
	"BenchmarkFig19CoalescingSize",
	"BenchmarkFig20CoalesceDistribution",
	"BenchmarkFig21ContextHashSize",
}
