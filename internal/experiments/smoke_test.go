package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"ispy/internal/core"
)

// optAlias shortens variant-option construction in tests.
type optAlias = core.Options

// smokeLab is shared across the per-experiment smoke tests so the expensive
// artifacts (profile, builds, headline runs) are computed once.
var (
	smokeOnce sync.Once
	smoke     *Lab
)

func smokeLab() *Lab {
	smokeOnce.Do(func() {
		smoke = NewLab(Config{
			Apps:          []string{"wordpress"},
			MeasureInstrs: 500_000,
			WarmupInstrs:  250_000,
			SweepInstrs:   300_000,
			SweepWarmup:   200_000,
			Parallel:      true,
		})
	})
	return smoke
}

// smokeRun executes one experiment and applies shared sanity checks.
func smokeRun(t *testing.T, id string) *Result {
	t.Helper()
	spec, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res := spec.Run(smokeLab())
	if res.ID != id {
		t.Fatalf("result ID %q != %q", res.ID, id)
	}
	if res.Paper == "" || res.Measured == "" {
		t.Error("paper/measured summary missing")
	}
	if res.Table == nil || len(res.Table.Rows) == 0 {
		t.Error("no table rows produced")
	}
	if !strings.Contains(res.String(), res.Measured) {
		t.Error("rendering drops the measured summary")
	}
	return res
}

func TestSmokeFig3(t *testing.T) {
	res := smokeRun(t, "fig3")
	if len(res.Table.Rows) != 7 {
		t.Errorf("fig3 rows = %d, want 7 thresholds", len(res.Table.Rows))
	}
}

func TestSmokeFig4(t *testing.T)  { smokeRun(t, "fig4") }
func TestSmokeFig5(t *testing.T)  { smokeRun(t, "fig5") }
func TestSmokeFig11(t *testing.T) { smokeRun(t, "fig11") }
func TestSmokeFig13(t *testing.T) { smokeRun(t, "fig13") }

// TestSmokeFig14 pins EXPERIMENTS.md's Fig. 14 finding: coalescing keeps
// I-SPY's static code-footprint increase below AsmDB's on every app.
func TestSmokeFig14(t *testing.T) {
	res := smokeRun(t, "fig14")
	pct := func(cell string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("footprint cell %q: %v", cell, err)
		}
		return v
	}
	for _, row := range res.Table.Rows {
		if adb, ispy := pct(row[1]), pct(row[2]); adb <= ispy {
			t.Errorf("%s: AsmDB static increase %.1f%% <= I-SPY %.1f%%", row[0], adb, ispy)
		}
	}
}

func TestSmokeFig15(t *testing.T) { smokeRun(t, "fig15") }

func TestSmokeFig12(t *testing.T) {
	res := smokeRun(t, "fig12")
	if len(res.Table.Rows) != 1 {
		t.Errorf("fig12 rows = %d", len(res.Table.Rows))
	}
	if len(res.Notes) == 0 {
		t.Error("fig12 must carry its ablation caveat")
	}
}

func TestSmokeFig19(t *testing.T) {
	res := smokeRun(t, "fig19")
	if len(res.Table.Rows) != 7 {
		t.Errorf("fig19 rows = %d, want 7 sizes", len(res.Table.Rows))
	}
}

func TestSmokeFig17(t *testing.T) {
	res := smokeRun(t, "fig17")
	if len(res.Table.Rows) != 6 {
		t.Errorf("fig17 rows = %d, want 6 predecessor counts", len(res.Table.Rows))
	}
}

func TestLabSweepVsSimBudgets(t *testing.T) {
	l := smokeLab()
	a := l.App("wordpress")
	if a.SweepCfg().MaxInstrs >= a.SimCfg().MaxInstrs {
		t.Error("sweep budget should be below the headline budget")
	}
}

func TestISPYVariantDoesNotPolluteCache(t *testing.T) {
	l := smokeLab()
	a := l.App("wordpress")
	before := a.ISPYStats().Cycles
	// Running a variant must not change the memoized headline artifacts.
	opt := smokeVariantOpt()
	a.ISPYVariant(opt, a.SweepCfg())
	if a.ISPYStats().Cycles != before {
		t.Error("variant run mutated memoized stats")
	}
}

func smokeVariantOpt() optAlias {
	o := core.DefaultOptions()
	o.Conditional = false
	return o
}
