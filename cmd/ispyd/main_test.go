package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitContract pins the documented 0/1/2 exit codes at the realMain
// boundary without spawning processes.
func TestExitContract(t *testing.T) {
	run := func(args ...string) (int, string, string) {
		var out, errw bytes.Buffer
		code := realMain(args, &out, &errw)
		return code, out.String(), errw.String()
	}

	if code, _, _ := run(); code != exitUsage {
		t.Errorf("no args exits %d, want %d", code, exitUsage)
	}
	if code, _, _ := run("bogus"); code != exitUsage {
		t.Errorf("unknown command exits %d, want %d", code, exitUsage)
	}
	if code, _, errs := run("soak", "-faults", "a=error,a=corrupt"); code != exitUsage {
		t.Errorf("duplicate fault clause exits %d, want %d (stderr %q)", code, exitUsage, errs)
	}
	if code, _, _ := run("serve", "-addr", "256.0.0.1:99999"); code != exitUsage {
		t.Errorf("bad listen address exits %d, want %d", code, exitUsage)
	}
	// A request computes on its own goroutine, so there is no worker pool
	// for -jobs to size: the flag is unknown. (The bad address keeps a
	// server that accepted it from serving.)
	if code, _, errs := run("serve", "-jobs", "2", "-addr", "256.0.0.1:99999"); code != exitUsage ||
		!strings.Contains(errs, "flag provided but not defined: -jobs") {
		t.Errorf("serve -jobs 2 exits %d (stderr %q), want %d naming the flag", code, errs, exitUsage)
	}
}

// TestSoakCommandPasses runs the full chaos soak through the CLI with small
// budgets: exit 0, a PASS verdict, and the reference line on stdout.
func TestSoakCommandPasses(t *testing.T) {
	var out, errw bytes.Buffer
	code := realMain([]string{
		"soak",
		"-cache-dir", t.TempDir(),
		"-apps", "wordpress",
		"-workers", "2", "-requests", "2",
		"-instrs", "60000",
		"-fault-seed", "20260807",
	}, &out, &errw)
	if code != exitOK {
		t.Fatalf("soak exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "soak: PASS") {
		t.Errorf("stdout missing PASS verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "reference wordpress @ 60000 instrs") {
		t.Errorf("stdout missing reference summary:\n%s", out.String())
	}
}
