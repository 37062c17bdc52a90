package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests run the real command: TestMain turns the test binary into
// ispy-diag when this variable is set, so exit codes and output are observed
// exactly as a user sees them.
const runMainEnv = "ISPY_DIAG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes ispy-diag with args and returns its exit code, stdout and
// stderr.
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
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

// TestCompare: one row per app, naming the app first and carrying the
// I-SPY column and its instruction-kind counts. The row ends in a wall
// time, so only its fields are checked.
func TestCompare(t *testing.T) {
	code, stdout, stderr := run(t, "compare", "tomcat")
	rows := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if code != 0 || len(rows) != 1 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and one row", code, stdout, stderr)
	}
	fields := strings.Fields(rows[0])
	if fields[0] != "tomcat" || !strings.Contains(rows[0], "ispy=") || !strings.Contains(rows[0], "kinds=[") {
		t.Errorf("row %q lacks the app name, ispy= or kinds=[", rows[0])
	}
}

// TestResidual: the decomposition reports the misses left after injection.
func TestResidual(t *testing.T) {
	code, stdout, stderr := run(t, "residual", "tomcat")
	if code != 0 || !strings.Contains(stdout, "residual misses=") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and a residual misses= line", code, stdout, stderr)
	}
}

// TestUsageErrors: an unknown app or command exits 2 with the usage line.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"compare", "bogus"}, {"bogus", "tomcat"}} {
		code, stdout, stderr := run(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: ispy-diag {compare|residual} [app...]") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and the usage line", args, code, stdout, stderr)
		}
	}
}
