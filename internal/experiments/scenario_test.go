package experiments

import (
	"testing"

	"ispy/internal/traceio"
	"ispy/internal/traffic"
)

const goldenSpec = "name=golden;seed=20260807;requests=96;arrival=gamma:0.7;day=0.6,1.4;zipf=0.9;" +
	"tenants=wordpress:slo=interactive,tomcat:slo=batch"

func scenarioLabConfig(cacheDir string) Config {
	return Config{
		Apps:          []string{"wordpress", "tomcat"},
		MeasureInstrs: 300_000,
		WarmupInstrs:  100_000,
		Parallel:      true,
		CacheDir:      cacheDir,
	}
}

func renderScenario(t *testing.T, cfg Config) string {
	t.Helper()
	lab := NewLab(cfg)
	spec, err := traffic.ParseSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.Scenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Render()
}

// TestScenarioGolden is the acceptance-criteria golden test: the same
// (seed, spec) renders byte-identical reports from a cold cache, a warm
// cache and no cache at all.
func TestScenarioGolden(t *testing.T) {
	dir := t.TempDir()
	cold := renderScenario(t, scenarioLabConfig(dir))
	warm := renderScenario(t, scenarioLabConfig(dir))
	if cold != warm {
		t.Fatalf("cold and warm cache render differently:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	nocache := renderScenario(t, scenarioLabConfig(""))
	if cold != nocache {
		t.Fatalf("cache bypass renders differently:\n%s\nvs\n%s", cold, nocache)
	}
}

// TestScenarioReplayMatchesCompose: recording a trace and replaying it
// yields the identical result (the record/replay contract).
func TestScenarioReplayMatchesCompose(t *testing.T) {
	spec, err := traffic.ParseSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLab(scenarioLabConfig(""))
	direct, err := lab.Scenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traceio.DecodeScenario(traceio.AppendScenario(nil, direct.Trace))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewLab(scenarioLabConfig("")).ScenarioTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Render() != replay.Render() {
		t.Fatalf("replay diverged from compose:\n%s\nvs\n%s", direct.Render(), replay.Render())
	}
}

func TestScenarioRowsPopulated(t *testing.T) {
	lab := NewLab(scenarioLabConfig(""))
	spec, err := traffic.ParseSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.Scenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseRows) != 2 || len(res.ISPYRows) != 2 {
		t.Fatalf("row counts: base %d ispy %d", len(res.BaseRows), len(res.ISPYRows))
	}
	for i := range res.BaseRows {
		if res.BaseRows[i].Misses == 0 {
			t.Fatalf("tenant %q: baseline saw no misses", res.BaseRows[i].Name)
		}
	}
	// I-SPY must reduce total misses on the interleaved stream.
	if res.ISPY.L1IMisses >= res.Base.L1IMisses {
		t.Fatalf("I-SPY did not reduce misses: %d -> %d", res.Base.L1IMisses, res.ISPY.L1IMisses)
	}
}

// TestScenarioUnknownAppFailsLikeBuildWorld: a spec naming an app no preset
// has (one ParseSpec would reject) fails with traffic.BuildWorld's error and
// looks nothing up.
func TestScenarioUnknownAppFailsLikeBuildWorld(t *testing.T) {
	spec, err := traffic.ParseSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Tenants[1].App = "bogus"
	_, want := traffic.BuildWorld(spec)
	lab := NewLab(scenarioLabConfig(t.TempDir()))
	if _, err := lab.Scenario(spec); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("error %v, want BuildWorld's %v", err, want)
	}
	if n := lab.Telemetry().Hits() + lab.Telemetry().Misses(); n != 0 {
		t.Errorf("a failing scenario made %d lookups", n)
	}
}

// TestBackendCPIIsTheWorlds: the backend CPI the scenario keys fold, derived
// from the tenants' parameters, is bit for bit the built world's.
func TestBackendCPIIsTheWorlds(t *testing.T) {
	for _, s := range []string{goldenSpec, benchScenario} {
		spec, err := traffic.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := traffic.BuildWorld(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := backendCPI(spec); err != nil || got != w.BackendCPI() {
			t.Errorf("%s: backendCPI = %v (%v), the world's is %v", spec.Name, got, err, w.BackendCPI())
		}
	}
}
