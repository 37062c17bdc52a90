package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ispy/internal/experiments"
	"ispy/internal/workload"
)

// runCLI invokes realMain the way main does, capturing both streams.
func runCLI(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = realMain(argv, &out, &errw)
	return code, out.String(), errw.String()
}

// TestExitCodeContract pins the documented exit codes: 0 clean, 1 partial,
// 2 usage — with every path flowing through the single epilogue.
func TestExitCodeContract(t *testing.T) {
	t.Run("no args is usage", func(t *testing.T) {
		if code, _, stderr := runCLI(t); code != exitUsage || !strings.Contains(stderr, "usage") {
			t.Errorf("code = %d, stderr = %q", code, stderr)
		}
	})
	t.Run("unknown command is usage", func(t *testing.T) {
		if code, _, _ := runCLI(t, "frobnicate"); code != exitUsage {
			t.Errorf("code = %d", code)
		}
	})
	t.Run("unknown experiment is usage", func(t *testing.T) {
		code, _, stderr := runCLI(t, "run", "fig99")
		if code != exitUsage || !strings.Contains(stderr, "fig99") {
			t.Errorf("code = %d, stderr = %q", code, stderr)
		}
	})
	t.Run("bad fault spec is usage", func(t *testing.T) {
		if code, _, _ := runCLI(t, "-faults", "site=nonsense", "list"); code != exitUsage {
			t.Errorf("code = %d", code)
		}
	})
	t.Run("bad apps is usage", func(t *testing.T) {
		if code, _, _ := runCLI(t, "-apps", ",", "list"); code != exitUsage {
			t.Errorf("code = %d", code)
		}
	})
	t.Run("list is clean", func(t *testing.T) {
		code, stdout, _ := runCLI(t, "list")
		if code != exitOK || !strings.Contains(stdout, "fig11") {
			t.Errorf("code = %d, stdout = %q", code, stdout)
		}
	})
	t.Run("clean run exits 0", func(t *testing.T) {
		code, stdout, stderr := runCLI(t, "-apps", "tomcat", "-instrs", "120000", "run", "fig1")
		if code != exitOK {
			t.Errorf("code = %d, stderr = %q", code, stderr)
		}
		if !strings.Contains(stdout, "completed in") {
			t.Errorf("no completion line: %q", stdout)
		}
		if strings.Contains(stderr, "FAILED") {
			t.Errorf("clean run reported failures: %q", stderr)
		}
	})
}

// TestRunPrintsInRequestOrder: `run` starts every requested experiment at
// once but prints the results in request order, each followed by its
// completion line, and its stdout at -jobs 1, where the experiments run one
// after another, is the default's apart from the completion lines.
func TestRunPrintsInRequestOrder(t *testing.T) {
	ids := []string{"fig12", "fig1", "fig14", "table1", "fig20"}
	args := append([]string{"-apps", "tomcat,wordpress", "-instrs", "120000", "run"}, ids...)
	code, stdout, stderr := runCLI(t, args...)
	if code != exitOK {
		t.Fatalf("code = %d, stderr = %q", code, stderr)
	}
	code, sequential, stderr := runCLI(t, append([]string{"-jobs", "1"}, args...)...)
	if code != exitOK {
		t.Fatalf("-jobs 1: code = %d, stderr = %q", code, stderr)
	}
	var order []string
	for _, line := range strings.Split(stdout, "\n") {
		if id, ok := strings.CutPrefix(line, "=== "); ok {
			order = append(order, strings.Fields(id)[0])
		}
		if rest, ok := strings.CutPrefix(line, "["); ok && strings.Contains(line, " completed in ") {
			if id := strings.Fields(rest)[0]; len(order) == 0 || id != order[len(order)-1] {
				t.Errorf("completion line %q does not follow its result", line)
			}
		}
	}
	if !reflect.DeepEqual(order, ids) {
		t.Errorf("results printed in order %v, want %v", order, ids)
	}
	if a, b := withoutTimes(stdout), withoutTimes(sequential); a != b {
		t.Errorf("stdout differs between the default -jobs and -jobs 1:\n--- default:\n%s--- -jobs 1:\n%s", a, b)
	}
}

// withoutTimes drops the lines that carry wall times.
func withoutTimes(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.Contains(line, " completed in ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestScenarioCLI covers the scenario command at the process boundary:
// usage errors exit 2 naming the offending tenant, and a recorded trace
// replays to byte-identical output.
func TestScenarioCLI(t *testing.T) {
	t.Run("no operand is usage", func(t *testing.T) {
		if code, _, stderr := runCLI(t, "scenario"); code != exitUsage || !strings.Contains(stderr, "spec") {
			t.Errorf("code = %d, stderr = %q", code, stderr)
		}
	})
	t.Run("malformed spec is usage", func(t *testing.T) {
		if code, _, _ := runCLI(t, "scenario", "arrival=bogus;tenants=tomcat"); code != exitUsage {
			t.Errorf("code = %d", code)
		}
	})
	t.Run("unknown tenant app is usage and names the tenant", func(t *testing.T) {
		code, _, stderr := runCLI(t, "scenario", "tenants=wordpress,httpd")
		if code != exitUsage {
			t.Fatalf("code = %d, want %d", code, exitUsage)
		}
		if !strings.Contains(stderr, "tenant 1") || !strings.Contains(stderr, `"httpd"`) {
			t.Errorf("error does not name the offending tenant: %q", stderr)
		}
		if !strings.Contains(stderr, "wordpress") {
			t.Errorf("error does not list valid presets: %q", stderr)
		}
	})
	t.Run("garbage trace file is usage", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "junk.ispy")
		if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, stderr := runCLI(t, "scenario", path); code != exitUsage || !strings.Contains(stderr, path) {
			t.Errorf("code = %d, stderr = %q", code, stderr)
		}
	})
	t.Run("record then replay is byte-identical", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "trace.ispy")
		spec := "name=rr;seed=7;requests=96;arrival=gamma:0.7;day=0.7,1.3;tenants=kafka,drupal"
		// The bare -scenario flag (no subcommand operand) must also work.
		code, direct, stderr := runCLI(t,
			"-instrs", "120000", "-scenario", spec, "-scenario-record", path)
		if code != exitOK {
			t.Fatalf("record run: code = %d, stderr = %q", code, stderr)
		}
		if !strings.Contains(direct, "scenario \"rr\"") || !strings.Contains(direct, "slo:std") {
			t.Fatalf("unexpected report:\n%s", direct)
		}
		code, replay, stderr := runCLI(t, "-instrs", "120000", "scenario", path)
		if code != exitOK {
			t.Fatalf("replay run: code = %d, stderr = %q", code, stderr)
		}
		if direct != replay {
			t.Errorf("replay output diverged from the recorded run:\n--- direct:\n%s--- replay:\n%s", direct, replay)
		}
	})
	t.Run("scenario fault exits partial", func(t *testing.T) {
		code, _, stderr := runCLI(t,
			"-instrs", "120000", "-faults", "compute/scenario-base/*=error",
			"-scenario", "seed=3;requests=64;tenants=tomcat")
		if code != exitPartial {
			t.Fatalf("code = %d, want %d\nstderr: %s", code, exitPartial, stderr)
		}
		if !strings.Contains(stderr, "FAILED") {
			t.Errorf("run report does not record the failure: %q", stderr)
		}
	})
}

// TestInjectedPanicExitsPartial: a fault that kills one app's computation
// must not kill the process — results for survivors print, the run report
// names the casualty, and the exit code is 1.
func TestInjectedPanicExitsPartial(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-apps", "wordpress,tomcat", "-instrs", "120000",
		"-faults", "compute/base/tomcat=panic", "run", "fig1")
	if code != exitPartial {
		t.Fatalf("code = %d, want %d\nstderr: %s", code, exitPartial, stderr)
	}
	if !strings.Contains(stdout, "SKIPPED") {
		t.Errorf("failed app not annotated in output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "wordpress") {
		t.Errorf("surviving app missing from output:\n%s", stdout)
	}
	if !strings.Contains(stderr, "FAILED") || !strings.Contains(stderr, "tomcat") {
		t.Errorf("run report does not name the failed app:\n%s", stderr)
	}
}

// TestTimeoutExitsPartial: an expired -timeout cancels the run; the process
// still completes the epilogue (report on stderr) and exits 1.
func TestTimeoutExitsPartial(t *testing.T) {
	code, _, stderr := runCLI(t,
		"-apps", "tomcat", "-instrs", "120000", "-timeout", "1ns", "run", "fig1")
	if code != exitPartial {
		t.Fatalf("code = %d, want %d\nstderr: %s", code, exitPartial, stderr)
	}
	if !strings.Contains(stderr, "run exceeded -timeout") {
		t.Errorf("report does not carry the timeout cause:\n%s", stderr)
	}
	if !strings.Contains(stderr, "SKIPPED") {
		t.Errorf("report does not record skipped work:\n%s", stderr)
	}
}

// TestTimeoutSweepStillPrintsSettings: a cancelled sweep must render every
// setting line (as n/a, naming why) rather than truncating the table.
func TestTimeoutSweepStillPrintsSettings(t *testing.T) {
	code, stdout, _ := runCLI(t,
		"-apps", "tomcat,wordpress", "-instrs", "120000", "-timeout", "1ns", "sweep", "preds")
	if code != exitPartial {
		t.Fatalf("code = %d, want %d", code, exitPartial)
	}
	for _, label := range []string{"preds=1", "preds=32"} {
		if !strings.Contains(stdout, label) {
			t.Errorf("sweep output missing %s:\n%s", label, stdout)
		}
	}
	const reason = "n/a (every app failed or was skipped)"
	if n := strings.Count(stdout, reason); n != 6 {
		t.Errorf("%d of 6 cancelled sweep rows read %q:\n%s", n, reason, stdout)
	}
}

// TestSweepNotesFailedApps: a point some apps failed keeps the mean of the
// others and says how many did not count.
func TestSweepNotesFailedApps(t *testing.T) {
	code, stdout, _ := runCLI(t, "-apps", "tomcat,wordpress", "-instrs", "120000",
		"-faults", "compute/ispy-variant-run/tomcat=panic", "sweep", "hash")
	if code != exitPartial {
		t.Fatalf("code = %d, want %d", code, exitPartial)
	}
	const note = "of ideal (mean over 1 apps; 1 failed or skipped)"
	if n := strings.Count(stdout, note); n != 5 {
		t.Errorf("%d of 5 rows carry %q:\n%s", n, note, stdout)
	}
}

// TestVerboseFlushesTelemetryOnPartialRun: -v telemetry must survive even a
// run that failed half-way (the single-exit-path guarantee).
func TestVerboseFlushesTelemetryOnPartialRun(t *testing.T) {
	code, _, stderr := runCLI(t,
		"-apps", "tomcat", "-instrs", "120000", "-v",
		"-faults", "compute/*=panic", "run", "fig1")
	if code != exitPartial {
		t.Fatalf("code = %d, want %d", code, exitPartial)
	}
	if !strings.Contains(stderr, "artifact") {
		t.Errorf("telemetry summary missing from stderr:\n%s", stderr)
	}
}

// Regression: -instrs used to rescale only the measured budgets, leaving the
// fixed 300k/200k warmups to swallow (or exceed) short runs.
func TestInstrsRescalesWarmups(t *testing.T) {
	cfg := experiments.DefaultConfig().WithMeasureInstrs(150_000)
	if cfg.MeasureInstrs != 150_000 {
		t.Fatalf("MeasureInstrs = %d", cfg.MeasureInstrs)
	}
	if cfg.WarmupInstrs >= cfg.MeasureInstrs {
		t.Errorf("warmup %d not rescaled below measure %d", cfg.WarmupInstrs, cfg.MeasureInstrs)
	}
	if cfg.SweepWarmup >= cfg.SweepInstrs {
		t.Errorf("sweep warmup %d not rescaled below sweep budget %d", cfg.SweepWarmup, cfg.SweepInstrs)
	}
	// The configuration's proportions survive the rescale.
	d := experiments.DefaultConfig()
	wantWarmup := uint64(float64(d.WarmupInstrs) * 150_000 / float64(d.MeasureInstrs))
	if cfg.WarmupInstrs != wantWarmup {
		t.Errorf("WarmupInstrs = %d, want %d", cfg.WarmupInstrs, wantWarmup)
	}
	// A zero target is a no-op.
	if got := d.WithMeasureInstrs(0); got.MeasureInstrs != d.MeasureInstrs || got.WarmupInstrs != d.WarmupInstrs {
		t.Error("WithMeasureInstrs(0) changed the config")
	}
}

// Regression: a warmup at or above the measured budget must be rejected, not
// silently produce zero-length measurements.
func TestValidateRejectsWarmupAboveMeasure(t *testing.T) {
	lab := experiments.NewLab(experiments.Config{
		Apps:          []string{"tomcat"},
		MeasureInstrs: 100_000,
		WarmupInstrs:  100_000,
	})
	if err := lab.Validate(); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("warmup ≥ measure accepted (err=%v)", err)
	}
	lab = experiments.NewLab(experiments.Config{
		Apps:        []string{"tomcat"},
		SweepInstrs: 50_000,
		SweepWarmup: 60_000,
	})
	if err := lab.Validate(); err == nil || !strings.Contains(err.Error(), "sweep warmup") {
		t.Errorf("sweep warmup ≥ sweep budget accepted (err=%v)", err)
	}
}

// Regression: -apps "a, b," used to pass the raw split (with spaces and an
// empty trailing entry) straight to the lab.
func TestParseApps(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"tomcat", []string{"tomcat"}},
		{"tomcat,kafka", []string{"tomcat", "kafka"}},
		{" tomcat , kafka ", []string{"tomcat", "kafka"}},
		{"tomcat,,kafka,", []string{"tomcat", "kafka"}},
		{",", nil},
		{"  ", nil},
	}
	for _, c := range cases {
		if got := workload.ParseApps(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseApps(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The unknown-app error must name the valid applications.
func TestUnknownAppErrorNamesValidApps(t *testing.T) {
	lab := experiments.NewLab(experiments.Config{Apps: []string{"nope"}})
	err := lab.Validate()
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	if !strings.Contains(err.Error(), "wordpress") || !strings.Contains(err.Error(), "tomcat") {
		t.Errorf("error does not list valid apps: %v", err)
	}
}
