package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ispy/internal/faults"
)

// faultCfg mirrors cacheCfg but over two apps, so one app can fail while the
// other survives.
func faultCfg(dir string) Config {
	return Config{
		Apps:          []string{"wordpress", "tomcat"},
		MeasureInstrs: 120_000,
		WarmupInstrs:  30_000,
		SweepInstrs:   60_000,
		SweepWarmup:   15_000,
		Parallel:      true,
		CacheDir:      dir,
	}
}

// rowFor returns the first table row whose leading cell is name.
func rowFor(res *Result, name string) []string {
	for _, row := range res.Table.Rows {
		if len(row) > 0 && row[0] == name {
			return row
		}
	}
	return nil
}

// TestPanicInOneAppDegradesGracefully is the headline acceptance test: a
// panic injected into one app's artifact computation during a multi-app
// figure run must not take down the run. The surviving app's rows are
// byte-identical to a fault-free run, the failed app renders as SKIPPED, and
// the run report names the app and stage.
func TestPanicInOneAppDegradesGracefully(t *testing.T) {
	spec, ok := Get("fig11")
	if !ok {
		t.Fatal("fig11 not registered")
	}

	clean := NewLab(faultCfg(t.TempDir()))
	cleanRes := spec.Run(clean)
	if !clean.Report().Clean() {
		t.Fatalf("fault-free run not clean: %s", clean.Report().Summary())
	}

	inj := faults.New(1)
	inj.Enable("compute/base/tomcat", faults.Rule{Kind: faults.Panic})
	cfg := faultCfg(t.TempDir())
	cfg.Faults = inj
	faulty := NewLab(cfg)
	res := spec.Run(faulty) // must not panic

	if got, want := rowFor(res, "wordpress"), rowFor(cleanRes, "wordpress"); !reflect.DeepEqual(got, want) {
		t.Errorf("surviving app's row changed under fault:\n got %q\nwant %q", got, want)
	}
	tomcat := rowFor(res, "tomcat")
	if tomcat == nil || !strings.Contains(strings.Join(tomcat, " "), "SKIPPED") {
		t.Errorf("failed app row not annotated: %q", tomcat)
	}

	rep := faulty.Report()
	if rep.Clean() {
		t.Error("report claims a clean run despite an injected panic")
	}
	if rep.FailedApp("tomcat") == nil {
		t.Error("report does not blame tomcat")
	}
	if rep.FailedApp("wordpress") != nil {
		t.Errorf("report blames the surviving app: %v", rep.FailedApp("wordpress"))
	}
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatal("no failures recorded")
	}
	sawFig11 := false
	for _, f := range fails {
		if f.App != "tomcat" {
			t.Errorf("failure attributed to app %q, want tomcat (stage %s)", f.App, f.Stage)
		}
		sawFig11 = sawFig11 || f.Stage == "fig11"
		var pe *PanicError
		if !errors.As(f.Err, &pe) {
			t.Errorf("failure is not a contained panic: %v", f.Err)
		} else if _, ok := pe.Value.(*faults.InjectedError); !ok {
			t.Errorf("panic value %v is not the injected fault", pe.Value)
		}
	}
	if !sawFig11 {
		// The warm stage records the original panic; the figure's own read
		// must record the memoized replay under its stage too.
		t.Errorf("no failure recorded under stage fig11: %v", fails)
	}
	if inj.Fired("compute/base/tomcat") == 0 {
		t.Error("injector reports the fault never fired")
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "tomcat") || !strings.Contains(sum, "fig11") {
		t.Errorf("summary does not name the failed app/stage:\n%s", sum)
	}
}

// TestCancellationSkipsAndReports: once the lab's context is cancelled,
// Attempt skips bodies instead of running them, the skip cause lands in the
// report, figures still render (all rows SKIPPED), telemetry survives, and
// no worker goroutines are left behind.
func TestCancellationSkipsAndReports(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancelCause(context.Background())
	l := NewLabContext(ctx, faultCfg(t.TempDir()))

	// Partial progress: the first app's stage completes before the cancel.
	if err := l.Attempt("wordpress", "demo", func() error { return nil }); err != nil {
		t.Fatalf("pre-cancel attempt failed: %v", err)
	}
	cause := errors.New("operator interrupt")
	cancel(cause)
	err := l.Attempt("tomcat", "demo", func() error {
		t.Error("body ran after cancellation")
		return nil
	})
	var se *SkipError
	if !errors.As(err, &se) || !errors.Is(se.Cause, cause) {
		t.Errorf("post-cancel attempt returned %v, want SkipError carrying the cause", err)
	}

	// A whole figure after cancellation: completes, renders only skips.
	spec, _ := Get("fig11")
	res := spec.Run(l)
	if len(res.Table.Rows) == 0 {
		t.Fatal("cancelled figure rendered no rows at all")
	}
	for _, row := range res.Table.Rows {
		if !strings.Contains(strings.Join(row, " "), "SKIPPED") {
			t.Errorf("row %q not marked SKIPPED after cancel", row)
		}
	}

	rep := l.Report()
	if rep.Skipped() == 0 {
		t.Error("report recorded no skips")
	}
	if len(rep.Failures()) != 0 {
		t.Errorf("cancellation recorded as failures: %v", rep.Failures())
	}
	if rep.Clean() {
		t.Error("report claims clean despite skips")
	}
	if !strings.Contains(rep.Summary(), "operator interrupt") {
		t.Errorf("summary drops the cancellation cause:\n%s", rep.Summary())
	}
	if l.Telemetry().Summary() == "" {
		t.Error("telemetry lost after cancellation")
	}

	// The pool must not leak workers; give exited goroutines a beat to die.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestFig12RowNeedsAllThreeVariants: a deadline that passes while tomcat's
// conditional-only cell computes its prepared evidence keeps the other five
// cells from starting. Every Fig. 12 row must then either equal a clean
// run's row or read SKIPPED, never show numbers for variants that never ran,
// and the summary must count only the rows that rendered.
func TestFig12RowNeedsAllThreeVariants(t *testing.T) {
	spec, _ := Get("fig12")
	cfg := faultCfg("")
	cfg.Apps = []string{"tomcat", "wordpress"}
	cfg.Parallel = false
	clean := spec.Run(NewLab(cfg))

	inj := faults.New(1)
	inj.Enable("compute/prepared/*", faults.Rule{Kind: faults.Latency, Delay: 400 * time.Millisecond})
	cfg.Faults = inj
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	l := NewLabContext(ctx, cfg)
	res := spec.Run(l)

	rendered := 0
	for _, row := range res.Table.Rows {
		if strings.Contains(strings.Join(row, " "), "SKIPPED") {
			continue
		}
		rendered++
		if want := rowFor(clean, row[0]); !reflect.DeepEqual(row, want) {
			t.Errorf("row %q is not a clean run's row %q", row, want)
		}
	}
	if rendered == len(res.Table.Rows) {
		t.Fatalf("the deadline skipped no row: %q", res.Table.Rows)
	}
	if want := fmt.Sprintf(" of %d apps", rendered); !strings.Contains(res.Measured, want) {
		t.Errorf("summary %q does not count only the %d rendered rows", res.Measured, rendered)
	}
	if l.Report().Skipped() == 0 {
		t.Error("report recorded no skipped cells")
	}
}

// TestCacheRecomputesThroughTornWrites: short (torn) writes at persist time
// leave truncated entries on disk; the next lab generation must detect them,
// evict, and recompute identical results.
func TestCacheRecomputesThroughTornWrites(t *testing.T) {
	dir := t.TempDir()

	inj := faults.New(7)
	inj.Enable("artifacts.write", faults.Rule{Kind: faults.ShortWrite, Count: 2})
	cfg := faultCfg(dir)
	cfg.Apps = []string{"tomcat"}
	cfg.Faults = inj
	cold := NewLab(cfg)
	want := cold.App("tomcat").Base().Cycles
	cold.App("tomcat").ISPYStats() // persist several more artifacts
	if !cold.Report().Clean() {
		t.Fatalf("torn writes must not fail the computation: %s", cold.Report().Summary())
	}
	if inj.Fired("artifacts.write") != 2 {
		t.Fatalf("want 2 torn writes, injector fired %d", inj.Fired("artifacts.write"))
	}

	warm := NewLab(cacheCfg(dir))
	if got := warm.App("tomcat").Base().Cycles; got != want {
		t.Errorf("recompute after torn write: base = %d, want %d", got, want)
	}
	warm.App("tomcat").ISPYStats()
	if warm.Telemetry().Evictions() == 0 {
		t.Error("torn entries were not evicted")
	}
	if warm.Telemetry().Misses() == 0 {
		t.Error("torn entries were not recomputed")
	}

	// Evicted entries are deleted, so a third generation is fully warm again.
	third := NewLab(cacheCfg(dir))
	if got := third.App("tomcat").Base().Cycles; got != want {
		t.Errorf("third generation base = %d, want %d", got, want)
	}
	third.App("tomcat").ISPYStats()
	if third.Telemetry().Evictions() != 0 {
		t.Errorf("repaired cache still evicted %d entries", third.Telemetry().Evictions())
	}
	if third.Telemetry().Misses() != 0 {
		t.Errorf("repaired cache still missed %d times", third.Telemetry().Misses())
	}
}

// TestCacheRecomputesThroughReadFaults: in-flight corruption and hard read
// errors on the load path both degrade to recomputation with correct values.
func TestCacheRecomputesThroughReadFaults(t *testing.T) {
	dir := t.TempDir()
	seed := NewLab(cacheCfg(dir))
	want := seed.App("tomcat").Base().Cycles
	files, _ := os.ReadDir(dir)
	nEntries := len(files)
	if nEntries == 0 {
		t.Fatal("seed run persisted nothing")
	}

	// A corrupt read fails verification: evict + recompute.
	inj := faults.New(3)
	inj.Enable("artifacts.read", faults.Rule{Kind: faults.Corrupt, Count: 1})
	cfg := cacheCfg(dir)
	cfg.Faults = inj
	l := NewLab(cfg)
	if got := l.App("tomcat").Base().Cycles; got != want {
		t.Errorf("base through corrupt read = %d, want %d", got, want)
	}
	l.App("tomcat").ISPYStats()
	if !l.Report().Clean() {
		t.Errorf("read corruption surfaced as a failure: %s", l.Report().Summary())
	}
	if l.Telemetry().Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", l.Telemetry().Evictions())
	}

	// A hard read error is a plain miss — the entry on disk may be fine, so
	// it is recomputed but NOT deleted.
	files, _ = os.ReadDir(dir)
	nBefore := len(files)
	inj2 := faults.New(3)
	inj2.Enable("artifacts.read", faults.Rule{Kind: faults.Error, Count: 1})
	cfg2 := cacheCfg(dir)
	cfg2.Faults = inj2
	l2 := NewLab(cfg2)
	if got := l2.App("tomcat").Base().Cycles; got != want {
		t.Errorf("base through read error = %d, want %d", got, want)
	}
	l2.App("tomcat").ISPYStats()
	if l2.Telemetry().Evictions() != 0 {
		t.Errorf("read error evicted %d entries; must not delete", l2.Telemetry().Evictions())
	}
	files, _ = os.ReadDir(dir)
	if len(files) != nBefore {
		t.Errorf("entry count changed %d -> %d across a read error", nBefore, len(files))
	}
}

// TestLatencyFaultDelaysButSucceeds: latency injection perturbs timing only.
func TestLatencyFaultDelaysButSucceeds(t *testing.T) {
	inj := faults.New(5)
	inj.Enable("compute/base/*", faults.Rule{Kind: faults.Latency, Delay: 5 * time.Millisecond})
	cfg := faultCfg(t.TempDir())
	cfg.Apps = []string{"tomcat"}
	cfg.Faults = inj
	l := NewLab(cfg)

	clean := NewLab(cacheCfg(filepath.Join(t.TempDir(), "c")))
	if l.App("tomcat").Base().Cycles != clean.App("tomcat").Base().Cycles {
		t.Error("latency fault changed results")
	}
	if !l.Report().Clean() {
		t.Errorf("latency fault recorded as failure: %s", l.Report().Summary())
	}
	if inj.Fired("compute/base/tomcat") == 0 {
		t.Error("latency fault never fired")
	}
}

// TestDivergedTraceFailsOnlyItsApp: when a profile's trace disagrees with the
// block stream its workload regenerates — here the profile claims another
// input than the one it ran — labeling panics instead of mislabeling. The
// run report names that app, its Fig. 10 row renders SKIPPED, and the other
// app's row is the clean run's.
func TestDivergedTraceFailsOnlyItsApp(t *testing.T) {
	spec, _ := Get("fig10")
	clean := spec.Run(NewLab(faultCfg("")))
	l := NewLab(faultCfg(""))
	l.App("tomcat").Profile().Input.Seed++
	res := spec.Run(l)
	err := l.Report().FailedApp("tomcat")
	if err == nil || !strings.Contains(err.Error(), "disagrees with the recorded trace") {
		t.Fatalf("tomcat's failure = %v, want the trace divergence", err)
	}
	if row := rowFor(res, "tomcat"); len(row) < 2 || !strings.HasPrefix(row[1], "SKIPPED") {
		t.Errorf("tomcat row = %q, want SKIPPED", row)
	}
	if err := l.Report().FailedApp("wordpress"); err != nil {
		t.Errorf("wordpress failed too: %v", err)
	}
	if got, want := rowFor(res, "wordpress"), rowFor(clean, "wordpress"); !reflect.DeepEqual(got, want) {
		t.Errorf("wordpress row = %q, want the clean run's %q", got, want)
	}
}
