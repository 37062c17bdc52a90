package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ispy/internal/experiments"
)

// A workload is one set of inputs the benchmark runs. e2e measures it with
// tracing off. The traced run covers its apps and times the simulator
// kernels at its budget: the instruction counts its programs simulate.
type workloadSpec struct {
	name   string
	e2e    func(e *env, o *outcome)
	budget func(e *env) experiments.Config
	apps   func(e *env) []string
}

// The four workloads. README.md gives the reason for each; the contrast that
// matters is which layers each one exercises and which it bypasses.
var workloads = []workloadSpec{
	// Closed loop, 2 clients, no artifact cache: every request recomputes
	// the whole pipeline, so core and profile dominate.
	{"serve-cold", serveCold, quickLab, allApps},
	// Closed loop, 1 client, through a pre-warmed artifact cache: every
	// request is a cache hit, so the analysis and kernel layers are bypassed.
	{"serve-warm", serveWarm, quickLab, allApps},
	// Baseline, profiling and hardware-window simulations only: the
	// simulator, the cache model and the executor dominate.
	{"batch-sim", batchSim, simLab, allApps},
	// The reproduction's main path: every experiment plus a traffic
	// scenario, written cold to a fresh cache and read back warm.
	{"batch-all", batchAll, quickLab, (*env).quickApps},
}

// simInstrs is batch-sim's measured budget (warmup rescales to 2M).
const simInstrs = 10_000_000

// sliceLen is the longest stretch of load between two calibration samples.
// The host's speed drifts within seconds (calib.go), so the samples must be
// spread through the measured window.
const sliceLen = 4 * time.Second

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func allApps(e *env) []string { return e.order(e.scale.apps) }

// quickLab is `ispy -quick`'s budget, which is also ispyd's default (both
// take the scale's -instrs override).
func quickLab(e *env) experiments.Config {
	c := experiments.QuickConfig()
	if e.scale.instrs != 0 {
		c = c.WithMeasureInstrs(e.scale.instrs)
	}
	return c
}

// simLab is `ispy -instrs simInstrs`'s budget.
func simLab(e *env) experiments.Config {
	n := e.scale.instrs
	if n == 0 {
		n = simInstrs
	}
	return experiments.DefaultConfig().WithMeasureInstrs(n)
}

// outcome is what a workload's end-to-end run observed. Every method is safe for
// concurrent use.
type outcome struct {
	mu        sync.Mutex
	calib     []float64 // calibration samples (calib.go), ms
	setups    []float64 // seconds per set-up
	lat       []float64 // ms per successful operation
	rssKB     int64
	attempted int
	failed    int
	problems  []string
}

// op records one operation's latency d, or its failure.
func (o *outcome) op(d time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		o.problems = append(o.problems, err.Error())
		return
	}
	o.lat = append(o.lat, ms(d))
}

// problem records a failed check that belongs to no single operation.
func (o *outcome) problem(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.problems = append(o.problems, err.Error())
}

// calibrate records one calibration sample. A sample precedes every set-up
// and every measured slice, and one follows the last slice.
func (o *outcome) calibrate() {
	c := calibrate()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calib = append(o.calib, c)
}

// setup calibrates, then times one set-up.
func (o *outcome) setup(f func() error) error {
	o.calibrate()
	began := time.Now()
	if err := f(); err != nil {
		return err
	}
	d := time.Since(began)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.setups = append(o.setups, d.Seconds())
	return nil
}

func (o *outcome) peakRSS(kb int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if kb > o.rssKB {
		o.rssKB = kb
	}
}

// measure runs the measured window: step runs back to back, each time
// given a slice of at most sliceLen to fill with load, until the steps have
// taken e.seconds in all. A calibration sample precedes every step and
// follows the last. A failed operation ends the window: the run is
// incorrect, and its remaining time would measure nothing.
func measure(e *env, o *outcome, step func(slice time.Duration)) {
	for left := e.seconds; left > 0 && !o.anyFailed(); {
		o.calibrate()
		began := time.Now()
		step(min(sliceLen, left))
		left -= time.Since(began)
	}
	o.calibrate()
}

// repeat fills a slice with operations run back to back: it runs op until
// the slice has passed, at least once, or an operation failed.
func (o *outcome) repeat(slice time.Duration, op func()) {
	for began := time.Now(); time.Since(began) < slice && !o.anyFailed(); {
		op()
	}
}

func (o *outcome) anyFailed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failed > 0
}

// runE2E runs w with tracing off and derives the end-to-end metrics. Times
// are scaled to the reference host by the geometric mean of the run's
// calibration samples (calib.go); the raw values go to the log.
func runE2E(e *env, w workloadSpec) *result {
	o := &outcome{}
	w.e2e(e, o)
	r := newResult()
	r.Attempted, r.Failed, r.problems = o.attempted, o.failed, o.problems
	if len(o.lat) == 0 || len(o.setups) == 0 || len(o.calib) == 0 {
		r.problem("%s: no operation completed", w.name)
		return r
	}
	logSum := 0.0
	for _, c := range o.calib {
		logSum += math.Log(c)
	}
	calib := math.Exp(logSum / float64(len(o.calib)))
	host := referenceCalibMS / calib
	raw := map[string]float64{
		"setup_s":        median(o.setups),
		"latency_p50_ms": quantile(o.lat, 0.50),
		"latency_p90_ms": quantile(o.lat, 0.90),
	}
	fmt.Fprintf(e.log, "bench: %d calibration samples, geometric mean %.2f ms: times scaled by %.4f; raw setup_s %.4f, latency_p50/p90_ms %.3f/%.3f\n",
		len(o.calib), calib, host, raw["setup_s"], raw["latency_p50_ms"], raw["latency_p90_ms"])
	r.set("setup_s", raw["setup_s"]*host, "s", len(o.setups))
	for _, n := range []string{"latency_p50_ms", "latency_p90_ms"} {
		r.set(n, raw[n]*host, "ms", len(o.lat))
	}
	r.set("peak_rss_mb", float64(o.rssKB)/1024, "MB", 1)
	return r
}
