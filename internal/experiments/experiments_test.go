package experiments

import (
	"strings"
	"testing"
)

// tinyLab keeps integration tests fast: one small app, short runs.
func tinyLab() *Lab {
	return NewLab(Config{
		Apps:          []string{"tomcat"},
		MeasureInstrs: 250_000,
		WarmupInstrs:  60_000,
		SweepInstrs:   120_000,
		SweepWarmup:   30_000,
		Parallel:      true,
	})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig3", "fig4", "fig5", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registered %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	// Presentation order: table1 first, then figures ascending.
	if ids[0] != "table1" || ids[1] != "fig1" || ids[len(ids)-1] != "fig21" {
		t.Errorf("order wrong: %v", ids)
	}
	if len(All()) != len(want) {
		t.Error("All() incomplete")
	}
}

func TestLabValidate(t *testing.T) {
	if err := NewLab(Config{Apps: []string{"tomcat"}}).Validate(); err != nil {
		t.Error(err)
	}
	if err := NewLab(Config{Apps: []string{"nope"}}).Validate(); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestLabMemoization(t *testing.T) {
	l := tinyLab()
	a := l.App("tomcat")
	if a.Base() != a.Base() {
		t.Error("Base not memoized")
	}
	if a.Profile() != a.Profile() {
		t.Error("Profile not memoized")
	}
	if a.ISPY() != a.ISPY() {
		t.Error("ISPY not memoized")
	}
	if l.App("tomcat") != a {
		t.Error("App not memoized")
	}
}

// TestBaseIsTheProfileRun: the unmodified program is simulated once per app
// and budget; without a cache the baseline is the profile run's very stats.
func TestBaseIsTheProfileRun(t *testing.T) {
	a := tinyLab().App("tomcat")
	if a.Base() != a.Profile().Stats {
		t.Error("Base() is not the profile run's Stats")
	}
}

func TestLabPipelineSanity(t *testing.T) {
	l := tinyLab()
	a := l.App("tomcat")
	base, ideal := a.Base(), a.Ideal()
	if ideal.Cycles >= base.Cycles {
		t.Fatal("ideal not faster than base")
	}
	adb, ispy := a.AsmDBStats(), a.ISPYStats()
	if adb.Cycles >= base.Cycles || ispy.Cycles >= base.Cycles {
		t.Error("prefetchers not faster than base")
	}
	if ispy.MPKI() >= base.MPKI() {
		t.Error("I-SPY did not reduce MPKI")
	}
}

func TestTable1(t *testing.T) {
	res := mustRun(t, tinyLab(), "table1")
	if !strings.Contains(res.Table.String(), "32 KiB") {
		t.Error("Table I missing L1 size")
	}
}

func TestFig1Runs(t *testing.T) {
	res := mustRun(t, tinyLab(), "fig1")
	if len(res.Table.Rows) != 1 {
		t.Errorf("fig1 rows = %d", len(res.Table.Rows))
	}
}

func TestFig10Runs(t *testing.T) {
	res := mustRun(t, tinyLab(), "fig10")
	if len(res.Table.Rows) != 1 || res.Measured == "" {
		t.Error("fig10 incomplete")
	}
	if !strings.Contains(res.String(), "paper:") {
		t.Error("result rendering incomplete")
	}
}

func TestFig20Runs(t *testing.T) {
	res := mustRun(t, tinyLab(), "fig20")
	if len(res.Table.Rows) == 0 {
		t.Error("fig20 produced no distribution")
	}
}

func TestFig21Runs(t *testing.T) {
	l := NewLab(Config{
		Apps:          []string{"wordpress"},
		MeasureInstrs: 250_000,
		WarmupInstrs:  60_000,
		SweepInstrs:   120_000,
		SweepWarmup:   30_000,
	})
	res := mustRun(t, l, "fig21")
	if len(res.Table.Rows) != 5 {
		t.Errorf("fig21 rows = %d, want 5 hash sizes", len(res.Table.Rows))
	}
}

func mustRun(t *testing.T, l *Lab, id string) *Result {
	t.Helper()
	spec, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	res := spec.Run(l)
	if res == nil || res.ID != id {
		t.Fatalf("experiment %q returned bad result", id)
	}
	return res
}

func TestQuickAndDefaultConfigs(t *testing.T) {
	d := DefaultConfig()
	if len(d.Apps) != 9 || d.MeasureInstrs == 0 {
		t.Error("default config incomplete")
	}
	q := QuickConfig()
	if q.MeasureInstrs >= d.MeasureInstrs {
		t.Error("quick config not quicker")
	}
	// Zero-field config takes defaults.
	l := NewLab(Config{})
	if len(l.Cfg.Apps) != 9 || l.Cfg.SweepInstrs == 0 {
		t.Error("NewLab defaulting broken")
	}
}
