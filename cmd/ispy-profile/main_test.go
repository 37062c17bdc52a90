package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

// The tests run the real command: TestMain turns the test binary into
// ispy-profile when this variable is set, so exit codes and stderr are
// observed exactly as a user sees them.
const runMainEnv = "ISPY_PROFILE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes ispy-profile with args in dir and returns its exit code,
// stdout and stderr.
func run(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestRoundTrip drives the Fig. 9 split end to end: collect a profile,
// build the injected program from it, evaluate that program, and describe
// both files.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	steps := []struct {
		args []string
		want string
	}{
		{[]string{"collect", "-app", "tomcat", "-instrs", "100000", "-o", "t.profile"}, "profiled tomcat:"},
		{[]string{"build", "-profile", "t.profile", "-o", "t.ispy"}, "prefetch instructions"},
		{[]string{"eval", "-app", "tomcat", "-prog", "t.ispy", "-instrs", "100000"}, "tomcat: +"},
		{[]string{"info", "-profile", "t.profile"}, "profile of tomcat"},
		{[]string{"info", "-prog", "t.ispy"}, "CLprefetch"},
	}
	for _, s := range steps {
		code, stdout, stderr := run(t, dir, s.args...)
		if code != 0 || !strings.Contains(stdout, s.want) {
			t.Fatalf("%v: exit %d, stdout %q (want %q), stderr %q", s.args, code, stdout, s.want, stderr)
		}
	}
}

// TestUnknownAppIsAnError: an unknown preset, named by flag or by a profile
// file, is a one-line error and exit 1, never a panic.
func TestUnknownAppIsAnError(t *testing.T) {
	dir := t.TempDir()
	writeProfile(t, filepath.Join(dir, "bogus.profile"), &traceio.ProfileData{WorkloadName: "bogus", Graph: cfg.NewGraph(1)})
	for _, args := range [][]string{
		{"collect", "-app", "bogus", "-o", "f"},
		{"eval", "-app", "bogus", "-prog", "p"},
		{"info", "-profile", "bogus.profile"},
		{"build", "-profile", "bogus.profile", "-o", "out"},
	} {
		code, _, stderr := run(t, dir, args...)
		if code != 1 || !strings.HasPrefix(stderr, "ispy-profile: ") ||
			!strings.Contains(stderr, `unknown app preset "bogus"`) || strings.Contains(stderr, "panic") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 and one ispy-profile: line", args, code, stderr)
		}
	}
}

// TestResizedProfileIsAnError: a profile whose graph covers another block
// count than its preset's program is a one-line error and exit 1.
func TestResizedProfileIsAnError(t *testing.T) {
	dir := t.TempDir()
	pd := &traceio.ProfileData{WorkloadName: "tomcat", WorkloadSeed: workload.PresetParams("tomcat").Seed, Graph: cfg.NewGraph(1)}
	writeProfile(t, filepath.Join(dir, "t.profile"), pd)
	code, _, stderr := run(t, dir, "build", "-profile", "t.profile", "-o", "out")
	if code != 1 || !strings.HasPrefix(stderr, "ispy-profile: ") || !strings.Contains(stderr, "program has") {
		t.Errorf("exit %d, stderr %q; want exit 1 and one ispy-profile: line", code, stderr)
	}
}

// writeProfile writes pd to path.
func writeProfile(t *testing.T, path string, pd *traceio.ProfileData) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := traceio.WriteProfile(f, pd); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
