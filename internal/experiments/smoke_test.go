package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ispy/internal/core"
	"ispy/internal/metrics"
	"ispy/internal/sim"
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

// TestSweepGrid: a cell scores its run as a % of ideal against the app's
// baseline and ideal rescaled to the run's budget, a point's mean is over its
// apps in app order, a failed cell drops out of its point's mean, and the
// pool's size changes not a bit of it.
func TestSweepGrid(t *testing.T) {
	bits := []int{4, 16}
	labels := []string{"bits=4", "bits=16"}
	run := func(a *App, i int) *sim.Stats {
		opt := core.DefaultOptions()
		opt.CoalesceBits = bits[i]
		return a.ISPYVariantStats(opt, a.SweepCfg())
	}
	grid := func(jobs int) (*Lab, []SweepMean) {
		l := NewLab(Config{
			Apps:          []string{"tomcat", "wordpress"},
			MeasureInstrs: 120_000,
			WarmupInstrs:  30_000,
			SweepInstrs:   60_000,
			SweepWarmup:   15_000,
			Parallel:      true,
			Jobs:          jobs,
		})
		return l, l.SweepGrid("test", labels, run)
	}
	l, seq := grid(1)
	if _, par := grid(2); !reflect.DeepEqual(seq, par) {
		t.Errorf("1-slot pool %+v, 2-slot pool %+v", seq, par)
	}

	rescale := func(headline, st *sim.Stats) uint64 {
		return uint64(float64(headline.Cycles) * float64(st.BaseInstrs) / float64(headline.BaseInstrs))
	}
	pct := make([][]float64, len(bits)) // [point][app]
	for i := range bits {
		sum := 0.0
		for _, a := range l.Apps() {
			st := run(a, i)
			p := metrics.PctOfIdeal(rescale(a.Base(), st), st.Cycles, rescale(a.Ideal(), st))
			pct[i] = append(pct[i], p)
			sum += p
		}
		if want := (SweepMean{PctOfIdeal: sum / 2, Ran: 2}); seq[i] != want {
			t.Errorf("%s = %+v, want %+v", labels[i], seq[i], want)
		}
	}

	failed := l.SweepGrid("test", labels[:1], func(a *App, i int) *sim.Stats {
		if a.Name == "tomcat" {
			panic("injected")
		}
		return run(a, i)
	})
	if want := (SweepMean{PctOfIdeal: pct[0][1], Ran: 1}); failed[0] != want {
		t.Errorf("with tomcat failing: %+v, want wordpress alone %+v", failed[0], want)
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
