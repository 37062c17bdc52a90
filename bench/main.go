// Command bench is the repository benchmark. It drives four workloads over
// the ispyd analysis server and the ispy batch CLI and measures what a user
// waits on, with tracing off; a separate traced run decomposes the same
// inputs layer by layer from this program's own code. README.md describes
// the workloads, the metrics and how to read a trace.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench --workload W --seed N --seconds S --trace 0|1
//	bench compare <parent-dir> <change-dir>
//
// A run prints one line per metric and, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. It exits 1 when an
// operation failed or an output check did not hold, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs bench/expected pins in full.
const defaultSeed = 1

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "seconds an end-to-end run measures (the traced run is a fixed suite)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer decomposition instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	work := filepath.Join(root, ".bench_build")
	e, cleanup, err := newEnv(root, work, fullScale, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer cleanup()
	e.seed = *seed
	e.seconds = time.Duration(*seconds) * time.Second

	var res *result
	if *trace == 1 {
		res = runTrace(e, w, filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed)))
	} else {
		res = runE2E(e, w)
	}
	res.print(stdout, stderr)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run: the JSON object printed last, plus the
// sample count behind each metric and the checks that failed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples  map[string]int
	problems []string
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// problem records a failed output check; it makes the run incorrect.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check counts one output check of the traced run as an operation, failed
// when err is not nil.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.problem("%v", err)
	}
}

// print writes the failed checks to stderr, then one line per metric and the
// JSON object to stdout.
func (r *result) print(stdout, stderr io.Writer) {
	r.Correct = len(r.problems) == 0 && r.Failed == 0 && r.Attempted > 0
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "bench: check failed: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(stdout, "%-32s %16.4f %-10s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	b, err := json.Marshal(r)
	if err != nil {
		// A map of finite floats and strings always encodes; a NaN does not,
		// and that is a bug in a metric's derivation.
		panic(err)
	}
	fmt.Fprintln(stdout, string(b))
}
