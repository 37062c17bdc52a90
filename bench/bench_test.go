package main

import (
	"bytes"
	"io"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// toyScale runs every workload's code path in a second or two each.
var toyScale = scale{apps: []string{"wordpress", "tomcat"}, instrs: 60_000, setups: 1, requests: 20}

// TestWorkloadsAtToyScale runs each workload end to end and the traced run
// at a toy scale, and checks that the metrics each emits are exactly the
// ones BENCHMARK.json lists, with the same units.
func TestWorkloadsAtToyScale(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readBenchSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	e, cleanup, err := newEnv(root, work, toyScale, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	e.seconds = 300 * time.Millisecond
	e.seed = 7

	// The runs share nothing but the built tools, so they run side by side.
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			checkResult(t, runE2E(e, w), spec.EndToEnd)
		})
	}
	t.Run("trace", func(t *testing.T) {
		t.Parallel()
		checkResult(t, runTrace(e, workloads[0], filepath.Join(work, "spans.jsonl")), spec.PerLayer)
	})
}

func checkResult(t *testing.T, r *result, want []metricSpec) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	r.print(&stdout, &stderr)
	if !r.Correct {
		t.Errorf("run not correct (%d of %d failed):\n%s", r.Failed, r.Attempted, stderr.String())
	}
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json lists %s, the run does not emit it", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range r.Metrics {
		if _, ok := units[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("emits metrics BENCHMARK.json does not list: %v", extra)
	}
}

// TestRefusesOutsideTheRepository: with only the benchmark's own files
// present there is nothing to build, and the run must fail before measuring.
func TestRefusesOutsideTheRepository(t *testing.T) {
	if _, _, err := newEnv(t.TempDir(), t.TempDir(), toyScale, io.Discard); err == nil {
		t.Fatal("newEnv succeeded in a directory without the repository")
	}
}

// TestQuantileMatchesPython pins the quantile method to Python's
// statistics.quantiles(data, n=4), which the spreads are judged with.
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{faster, "gain"},
		{slower, "regressed"},
		{parent, "within bound"},
		{noisy, "unresolved"},
	} {
		if got := judge(lower, parent, c.change, false).verdict; got != c.want {
			t.Errorf("judge(%v) = %q, want %q", c.change, got, c.want)
		}
	}
	if got := judge(lower, parent, faster, true).verdict; got == "gain" {
		t.Error("a change with more failed operations was judged a gain")
	}
}
