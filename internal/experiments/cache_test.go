package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ispy/internal/artifacts"
	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// cacheCfg is a tiny lab configuration pointed at dir.
func cacheCfg(dir string) Config {
	return Config{
		Apps:          []string{"tomcat"},
		MeasureInstrs: 120_000,
		WarmupInstrs:  30_000,
		SweepInstrs:   60_000,
		SweepWarmup:   15_000,
		Parallel:      true,
		CacheDir:      dir,
	}
}

// TestWarmCacheServesEveryArtifact is the end-to-end acceptance check: a
// second lab over the same cache directory must serve every headline
// artifact from disk — zero misses — and produce identical results.
func TestWarmCacheServesEveryArtifact(t *testing.T) {
	dir := t.TempDir()

	cold := NewLab(cacheCfg(dir))
	if err := cold.Validate(); err != nil {
		t.Fatal(err)
	}
	cold.Warm()
	a := cold.App("tomcat")
	coldBase, coldISPY := a.Base().Cycles, a.ISPYStats().Cycles
	if cold.Telemetry().Hits() != 0 {
		t.Errorf("cold run reported %d hits", cold.Telemetry().Hits())
	}
	if cold.Telemetry().Misses() == 0 {
		t.Error("cold run reported no misses")
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold run persisted no artifacts (err=%v)", err)
	}

	warm := NewLab(cacheCfg(dir))
	warm.Warm()
	b := warm.App("tomcat")
	if b.Base().Cycles != coldBase || b.ISPYStats().Cycles != coldISPY {
		t.Error("warm-cache results differ from cold-run results")
	}
	if warm.Telemetry().Hits() == 0 {
		t.Error("warm run reported no cache hits")
	}
	if warm.Telemetry().Misses() != 0 {
		t.Errorf("warm run recomputed %d artifacts", warm.Telemetry().Misses())
	}
}

// TestWarmAnalyzePathOnlyReadsEntries: over a cache a cold lab filled, the
// artifacts an analyze request reads (Base, ISPYPlan, ISPYStats) are three
// hits that return the cold values without generating the workload, loading
// the profile the baseline came from, or decoding the injected program.
func TestWarmAnalyzePathOnlyReadsEntries(t *testing.T) {
	dir := t.TempDir()
	cold := NewLab(cacheCfg(dir))
	c := cold.App("tomcat")
	base, plan, ispy := c.Base(), c.ISPYPlan(), c.ISPYStats()
	if !reflect.DeepEqual(plan, c.ISPY().Plan.Summary()) || len(plan.CoalesceDistances) == 0 {
		t.Errorf("cold ISPYPlan = %+v, want the nonempty summary of ISPY().Plan", plan)
	}

	warm := NewLab(cacheCfg(dir))
	w := warm.App("tomcat")
	if got := w.Base(); *got != *base {
		t.Errorf("warm base = %+v, want %+v", got, base)
	}
	if got := w.ISPYPlan(); !reflect.DeepEqual(got, plan) {
		t.Errorf("warm plan summary = %+v, want the cold one %+v", got, plan)
	}
	if got := w.ISPYStats(); *got != *ispy {
		t.Errorf("warm ISPY run = %+v, want %+v", got, ispy)
	}
	if h, m := warm.Telemetry().Hits(), warm.Telemetry().Misses(); h != 3 || m != 0 {
		t.Errorf("warm analyze path: %d hits, %d misses; want 3 hits, 0 misses", h, m)
	}
	if _, ok := w.wl.peek(); ok {
		t.Error("warm analyze path generated the workload")
	}
	if _, ok := w.prof.peek(); ok {
		t.Error("warm analyze path loaded the profile")
	}
	if _, ok := w.ispyB.peek(); ok {
		t.Error("warm analyze path decoded the build")
	}

	// A build already in memory serves the plan without a second read.
	again := NewLab(cacheCfg(dir))
	x := again.App("tomcat")
	if !reflect.DeepEqual(x.ISPY().Plan.Summary(), x.ISPYPlan()) || again.Telemetry().Hits() != 1 {
		t.Errorf("ISPYPlan after ISPY: %d hits, want the build's one", again.Telemetry().Hits())
	}
}

// TestWarmFig16OnlyReadsEntries: over a cache a cold run of Fig. 16 filled,
// a warm run is its 60 drift runs' hits alone. It renders the cold table
// without generating a workload or loading a profile, AsmDB build or I-SPY
// build.
func TestWarmFig16OnlyReadsEntries(t *testing.T) {
	dir := t.TempDir()
	spec, _ := Get("fig16")
	cold := spec.Run(NewLab(cacheCfg(dir)))
	l := NewLab(cacheCfg(dir))
	warm := spec.Run(l)
	if !reflect.DeepEqual(warm.Table.Rows, cold.Table.Rows) {
		t.Errorf("warm Fig. 16 rows %q, want the cold run's %q", warm.Table.Rows, cold.Table.Rows)
	}
	if h, m := l.Telemetry().Hits(), l.Telemetry().Misses(); h != 60 || m != 0 {
		t.Errorf("warm Fig. 16: %d hits, %d misses; want 60 hits, 0 misses", h, m)
	}
	for _, name := range fig16Apps {
		a := l.App(name)
		if _, ok := a.wl.peek(); ok {
			t.Errorf("%s: warm Fig. 16 generated the workload", name)
		}
		if _, ok := a.prof.peek(); ok {
			t.Errorf("%s: warm Fig. 16 loaded the profile", name)
		}
		if _, ok := a.asmdbB.peek(); ok {
			t.Errorf("%s: warm Fig. 16 loaded the AsmDB build", name)
		}
		if _, ok := a.ispyB.peek(); ok {
			t.Errorf("%s: warm Fig. 16 loaded the I-SPY build", name)
		}
	}
}

// TestArtifactKeysPinned pins the file names of the entries a cold `ispy
// -quick all` and the bench's scenario write, one per artifact kind, as the
// caches written by earlier releases name them: anything that changes what
// a key folds turns every existing entry of that kind into a miss. Keys
// fold the preset's parameters with Generate's defaults applied, exactly
// those of the generated workload.
func TestArtifactKeysPinned(t *testing.T) {
	l := NewLab(QuickConfig())
	for app, want := range map[string][4]string{
		"tomcat": {
			"base-tomcat-bffd5b42a6c02c2a.art",
			"profile-tomcat-fb1a5fa21e2619c5.art",
			"ispy-build-tomcat-a2869806038446a2.art",
			"ispy-run-tomcat-ff8c73a9c052e94b.art",
		},
		"verilator": {
			"base-verilator-dc8dda28031746f0.art",
			"profile-verilator-f49f9c7e21b6d0ff.art",
			"ispy-build-verilator-2169e9d771237a54.art",
			"ispy-run-verilator-0ecfa9873048203d.art",
		},
	} {
		a := l.App(app)
		got := [4]string{
			a.simKey("base").Filename(),
			a.simKey("profile").Filename(),
			a.ispyBuild().key.Filename(),
			a.optKey("ispy-run").Filename(),
		}
		if got != want {
			t.Errorf("%s keys = %q, want %q", app, got, want)
		}
	}
	for _, name := range workload.AppNames {
		if got, want := l.App(name).Params, workload.Preset(name).Params; got != want {
			t.Errorf("%s: App folds %+v, the generated workload has %+v", name, got, want)
		}
	}

	tom, wp, dr := l.App("tomcat"), l.App("wordpress"), l.App("drupal")
	conditional := core.DefaultOptions() // Fig. 12's conditional-only variant
	conditional.Coalesce = false
	window := core.DefaultOptions() // a Fig. 18 point
	window.MinDistCycles = 20
	thRun, _ := wp.asmdbAtRun(0.5)
	variantRun, _ := tom.variantRun(conditional, tom.SimCfg())
	freshRun, _ := tom.freshRun(window, tom.SweepCfg())
	drift, cfg := workload.DriftedInputsFor(dr.Params, 5)[0], dr.SimCfg()
	ideal := cfg
	ideal.Ideal = true
	spec, err := traffic.ParseSpec(benchScenario)
	if err != nil {
		t.Fatal(err)
	}
	_, scenarioBase, scenarioISPY, err := l.scenarioKeys(spec, traffic.Compose(spec))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  *artifacts.Key
		want string
	}{
		{tom.asmdbBuild().key, "asmdb-build-tomcat-c0ad7ce064d4ab2d.art"},
		{tom.optKey("asmdb-run").SimConfig(asmdb.RunConfig(tom.SimCfg())), "asmdb-run-tomcat-2644f18f56188c4e.art"},
		{wp.asmdbAtBuild(0.5).key, "asmdb-th-build-wordpress-f9e2f8ccf940eab0.art"},
		{thRun, "asmdb-th-run-wordpress-f69304762f86cf2a.art"},
		{tom.inputKey("hwpf-run", asmdb.ContiguousConfig(tom.SimCfg(), 8), workload.DefaultInputFor(tom.Params)),
			"hwpf-run-tomcat-89e8e1741b7d1619.art"},
		// Re-keyed on purpose: named by its mask's recipe, not the mask's
		// contents (was hwpf-run-tomcat-1a86ddaf15cdcdea.art).
		{tom.nonContiguousKey(8), "hwpf-run-tomcat-f709e68b9f9d5c7b.art"},
		{dr.inputKey("drift-base", cfg, drift), "drift-base-drupal-987de1091d7112ac.art"},
		{dr.inputKey("drift-ideal", ideal, drift), "drift-ideal-drupal-181b6f989b476d58.art"},
		{dr.inputKey("drift-asmdb", asmdb.RunConfig(cfg), drift), "drift-asmdb-drupal-1afda3d44c4c26c0.art"},
		{dr.inputKey("drift-ispy", cfg, drift), "drift-ispy-drupal-cb59a5beef20fad2.art"},
		{tom.variantBuild(conditional).key, "ispy-variant-build-tomcat-efef503fb14df987.art"},
		{variantRun, "ispy-variant-run-tomcat-b97f5ace540482ab.art"},
		{freshRun, "ispy-fresh-run-tomcat-d6d5e7cb80000b50.art"},
		{tom.staticKey(), "static-size-tomcat-3a1523da640f8566.art"},
		{scenarioBase, "scenario-base-bench-8c351a3d4c1cd85c.art"},
		{scenarioISPY, "scenario-ispy-bench-86d801a3ca37c8e9.art"},
	} {
		if got := c.key.Filename(); got != c.want {
			t.Errorf("%s key = %q, want %q", c.key.Kind(), got, c.want)
		}
	}
}

// benchScenario is the shape of the bench's four-tenant scenario.
const benchScenario = "name=bench;seed=1;requests=400;arrival=gamma:0.7;day=0.6,1.4;zipf=0.8;" +
	"tenants=kafka:slo=interactive,wordpress:slo=batch,drupal:slo=interactive,tomcat:slo=batch"

// runPlanFigures runs the figures that print plan counters, static
// footprints and run statistics but no program, and the bench's scenario,
// on l. It returns their table rows and the scenario's report.
func runPlanFigures(t *testing.T, l *Lab) ([][][]string, string) {
	t.Helper()
	var rows [][][]string
	for _, id := range []string{"fig3", "fig4", "fig5", "fig14", "fig20", "fig21"} {
		spec, _ := Get(id)
		rows = append(rows, spec.Run(l).Table.Rows)
	}
	spec, err := traffic.ParseSpec(benchScenario)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Scenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Report().Clean() {
		t.Fatalf("run failed: %s", l.Report().Summary())
	}
	return rows, res.Render()
}

// TestWarmPlanFiguresOnlyReadEntries: over a cache a cold lab filled, Figs.
// 3, 4, 5, 14, 20 and 21 and the bench's scenario render the cold tables
// from hits alone. Every build entry's program is first made undecodable,
// so a decoded program would show as a miss. No profile, AsmDB or I-SPY
// build and no scenario world is loaded or built, and no app generates its
// workload: the unmodified program's static size is an entry of its own.
func TestWarmPlanFiguresOnlyReadEntries(t *testing.T) {
	dir := t.TempDir()
	cold := NewLab(cacheCfg(dir))
	coldRows, coldScenario := runPlanFigures(t, cold)
	if fig20 := coldRows[4]; len(fig20) == 0 {
		t.Fatal("Fig. 20 printed no histogram; its warm read tests nothing")
	}

	// Keep each build entry's plan, as the cold lab built it; replace its
	// program with one that encodes but fails validation, so the plan-only
	// read still reads the entry and LoadBuild misses.
	c, err := artifacts.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var refs []buildRef
	for _, name := range []string{"tomcat", "wordpress", "kafka", "drupal"} {
		a := cold.App(name)
		refs = append(refs, a.asmdbBuild(), a.ispyBuild())
	}
	wp := cold.App(fig3App)
	for _, th := range fig3Thresholds {
		refs = append(refs, wp.asmdbAtBuild(th))
	}
	for _, bits := range fig21HashBits {
		opt := core.DefaultOptions()
		opt.HashBits = bits
		refs = append(refs, wp.variantBuild(opt))
	}
	builds, err := filepath.Glob(filepath.Join(dir, "*-build-*.art"))
	if err != nil {
		t.Fatal(err)
	}
	undecodable := &isa.Program{Funcs: []isa.Func{{Name: "f", Blocks: []int{0}}}}
	poisoned := 0
	for _, r := range refs {
		if _, err := os.Stat(filepath.Join(dir, r.key.Filename())); err != nil {
			continue
		}
		c.StoreBuild(context.Background(), r.key, &core.Build{Prog: undecodable, Plan: r.build(cold).Plan})
		poisoned++
	}
	if poisoned != len(builds) {
		t.Fatalf("replaced %d build programs, the cache holds %d builds", poisoned, len(builds))
	}

	worlds := 0
	defer func(f func(*traffic.Spec) (*traffic.World, error)) { buildWorld = f }(buildWorld)
	buildWorld = func(s *traffic.Spec) (*traffic.World, error) {
		worlds++
		return traffic.BuildWorld(s)
	}
	l := NewLab(cacheCfg(dir))
	warmRows, warmScenario := runPlanFigures(t, l)
	if !reflect.DeepEqual(warmRows, coldRows) {
		t.Errorf("warm rows %q, want the cold run's %q", warmRows, coldRows)
	}
	if warmScenario != coldScenario {
		t.Errorf("warm scenario report:\n%s\nwant the cold one:\n%s", warmScenario, coldScenario)
	}
	// Figs. 4 and 14 print tomcat's static footprint, Fig. 21 wordpress's:
	// two static-size hits.
	if h, m := l.Telemetry().Hits(), l.Telemetry().Misses(); h != 36 || m != 0 {
		t.Errorf("warm figures: %d hits, %d misses; want 36 hits, 0 misses", h, m)
	}
	if worlds != 0 {
		t.Errorf("warm scenario built %d worlds", worlds)
	}
	for name, a := range l.apps {
		if _, ok := a.prof.peek(); ok {
			t.Errorf("%s: warm figures loaded the profile", name)
		}
		if _, ok := a.asmdbB.peek(); ok {
			t.Errorf("%s: warm figures loaded the AsmDB build", name)
		}
		if _, ok := a.ispyB.peek(); ok {
			t.Errorf("%s: warm figures loaded the I-SPY build", name)
		}
		if _, ok := a.wl.peek(); ok {
			t.Errorf("%s: warm figures generated the workload", name)
		}
	}
}

// TestPlanPricesTheInjectedBytes: the prefetch bytes a plan prices under its
// build's options are the injected program's, on every preset, for each
// build whose static footprint a figure prints: default I-SPY and AsmDB,
// Fig. 3's thresholds and Fig. 21's hash widths. That holds for the built
// plans and for the same plans read back from the cache, which carry no
// options.
func TestPlanPricesTheInjectedBytes(t *testing.T) {
	type build struct {
		name string
		opt  core.Options
		ref  func(*App) buildRef
	}
	builds := []build{
		{"I-SPY", core.DefaultOptions(), (*App).ispyBuild},
		{"AsmDB", core.DefaultOptions(), (*App).asmdbBuild},
	}
	for _, th := range fig3Thresholds {
		builds = append(builds, build{fmt.Sprintf("AsmDB at %g", th), core.DefaultOptions(),
			func(a *App) buildRef { return a.asmdbAtBuild(th) }})
	}
	for _, bits := range fig21HashBits {
		opt := core.DefaultOptions()
		opt.HashBits = bits
		builds = append(builds, build{fmt.Sprintf("I-SPY at %d hash bits", bits), opt,
			func(a *App) buildRef { return a.variantBuild(opt) }})
	}
	cfg := cacheCfg(t.TempDir())
	cfg.Apps = workload.AppNames
	cfg.MeasureInstrs, cfg.WarmupInstrs = 60_000, 20_000
	want := make(map[string][]uint64)
	var mu sync.Mutex
	cold := NewLab(cfg)
	cold.ForEachApp("price", func(a *App) error {
		bytes := make([]uint64, len(builds))
		for i, b := range builds {
			built := b.ref(a).build(cold)
			bytes[i], _ = built.Prog.PrefetchBytes()
			s := built.Plan.Summary()
			if got := s.PrefetchBytes(b.opt); got != bytes[i] {
				t.Errorf("%s, %s: built plan prices %d bytes, the program holds %d", a.Name, b.name, got, bytes[i])
			}
		}
		mu.Lock()
		want[a.Name] = bytes
		mu.Unlock()
		return nil
	})
	if !cold.Report().Clean() {
		t.Fatal(cold.Report().Summary())
	}
	warm := NewLab(cfg)
	for _, a := range warm.Apps() {
		for i, b := range builds {
			s := b.ref(a).plan(warm)
			if got := s.PrefetchBytes(b.opt); got != want[a.Name][i] {
				t.Errorf("%s, %s: loaded plan prices %d bytes, the program holds %d", a.Name, b.name, got, want[a.Name][i])
			}
		}
	}
	if m := warm.Telemetry().Misses(); m != 0 {
		t.Errorf("reading the plans back missed %d times", m)
	}
}

func TestVariantAndFreshRunsAreCached(t *testing.T) {
	dir := t.TempDir()
	opt := core.DefaultOptions()
	opt.Coalesce = false

	cold := NewLab(cacheCfg(dir))
	a := cold.App("tomcat")
	coldVar := a.ISPYVariantStats(opt, a.SweepCfg()).Cycles
	coldFresh := a.FreshVariantStats(opt, a.SweepCfg()).Cycles

	warm := NewLab(cacheCfg(dir))
	b := warm.App("tomcat")
	if b.ISPYVariantStats(opt, b.SweepCfg()).Cycles != coldVar {
		t.Error("variant run differs across cache generations")
	}
	if b.FreshVariantStats(opt, b.SweepCfg()).Cycles != coldFresh {
		t.Error("fresh-variant run differs across cache generations")
	}
	if warm.Telemetry().Misses() != 0 {
		t.Errorf("warm variant runs recomputed %d artifacts", warm.Telemetry().Misses())
	}
	// A different option point is a different artifact, not a stale hit.
	opt2 := opt
	opt2.MaxPreds = 2
	b.ISPYVariantStats(opt2, b.SweepCfg())
	if warm.Telemetry().Misses() == 0 {
		t.Error("new option point served from cache")
	}
}

// TestCorruptCacheEntryRecomputes: damaging an entry on disk must silently
// fall back to recomputation (and repair the entry).
func TestCorruptCacheEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	cold := NewLab(cacheCfg(dir))
	want := cold.App("tomcat").Base().Cycles

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatal("no cache entries written")
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := NewLab(cacheCfg(dir))
	if got := warm.App("tomcat").Base().Cycles; got != want {
		t.Errorf("recomputed base = %d, want %d", got, want)
	}
	if warm.Telemetry().Hits() != 0 || warm.Telemetry().Misses() == 0 {
		t.Error("corrupt entry was not treated as a miss")
	}
}

func TestValidateSurfacesCacheError(t *testing.T) {
	// A cache path that collides with an existing file cannot be created.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLab(Config{Apps: []string{"tomcat"}, CacheDir: filepath.Join(f, "sub")})
	if err := l.Validate(); err == nil {
		t.Error("unusable cache dir accepted")
	}
}
