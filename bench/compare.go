package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that compare reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics, which have none
}

func readBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare applies the paired-runs rule to two sets of runs. Each directory
// holds one <workload>.jsonl file per workload, one run's result object per
// line in the order the runs were made; line i of the parent's file pairs
// with line i of the change's. It prints one row per (workload, metric) and
// exits 1 when any metric regressed beyond its bound.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <parent-dir> <change-dir>  (each holding <workload>.jsonl)")
		return 2
	}
	spec, err := readBenchSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	regressed := false
	fmt.Fprintf(stdout, "%-11s %-30s %-9s %26s %26s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, w := range workloadNames() {
		parent, perr := readRuns(filepath.Join(args[0], w+".jsonl"))
		change, cerr := readRuns(filepath.Join(args[1], w+".jsonl"))
		if os.IsNotExist(perr) && os.IsNotExist(cerr) {
			continue
		}
		if perr != nil || cerr != nil {
			fmt.Fprintf(stderr, "bench compare: %s: %v %v\n", w, perr, cerr)
			return 2
		}
		moreFailures := failures(change) > failures(parent)
		for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
			p, c := values(parent, m.Name), values(change, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(m, p, c, moreFailures)
			regressed = regressed || v.verdict == "regressed"
			fmt.Fprintf(stdout, "%-11s %-30s %-9s %26s %26s %6s  %s\n", w, m.Name, m.Unit,
				quartiles(p), quartiles(c), fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
		if moreFailures {
			fmt.Fprintf(stdout, "%-11s more failed operations on the change (%d) than on the parent (%d): no gain counts\n",
				w, failures(change), failures(parent))
		}
	}
	if regressed {
		return 1
	}
	return 0
}

type judgement struct {
	wins, pairs int
	verdict     string
}

// judge applies the rule: a gain needs at least ten pairs, a win in nine
// tenths of them (ties count for neither) and a median gap wider than the
// parent's interquartile range. A metric whose spread on either side exceeds
// its bound is unresolved unless every change run beats every parent run;
// otherwise a median worse than the parent's by more than the bound is a
// regression.
func judge(m metricSpec, p, c []float64, moreFailures bool) judgement {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	j := judgement{pairs: min(len(p), len(c))}
	for i := 0; i < j.pairs; i++ {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	pm, cm := median(p), median(c)
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := m.Bound > 0 && better(pm, cm) && math.Abs(cm-pm) > m.Bound*math.Abs(pm)
	wide := m.Bound > 0 && (spread(p) > m.Bound || spread(c) > m.Bound)
	switch {
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs && better(cm, pm) &&
		math.Abs(cm-pm) > quantile(p, 0.75)-quantile(p, 0.25) && !moreFailures:
		j.verdict = "gain"
	case wide && !allBetter:
		j.verdict = "unresolved"
	case worse:
		j.verdict = "regressed"
	case m.Bound > 0:
		j.verdict = "within bound"
	default:
		j.verdict = "no gain"
	}
	if j.pairs < 10 && j.verdict != "regressed" {
		j.verdict += " (fewer than 10 pairs)"
	}
	return j
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// readRuns reads one result object per non-empty line.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(runs []result) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
		if !r.Correct {
			n++
		}
	}
	return n
}
