package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ispy/internal/core"
	"ispy/internal/traceio"
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
	if plan != c.ISPY().Plan {
		t.Error("cold ISPYPlan is not ISPY().Plan")
	}

	warm := NewLab(cacheCfg(dir))
	w := warm.App("tomcat")
	if got := w.Base(); *got != *base {
		t.Errorf("warm base = %+v, want %+v", got, base)
	}
	if got, want := planBytes(t, w.ISPYPlan()), planBytes(t, plan); !bytes.Equal(got, want) {
		t.Error("warm plan differs from the cold plan")
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
	if x.ISPY().Plan != x.ISPYPlan() || again.Telemetry().Hits() != 1 {
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

func planBytes(t *testing.T, p *core.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactKeysPinned pins the file names of the entries an analyze
// request looks up at QuickConfig, as the cache written by earlier releases
// names them: anything that changes what a key folds turns every existing
// cache into misses. Keys fold the preset's parameters with Generate's
// defaults applied, exactly those of the generated workload.
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
			a.optKey("ispy-build").Filename(),
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
