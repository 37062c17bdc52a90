// ispy is the experiment harness CLI: it regenerates the tables and figures
// of "I-SPY: Context-Driven Conditional Instruction Prefetching with
// Coalescing" (MICRO 2020) on the synthetic-workload simulator.
//
// Usage:
//
//	ispy list                 list all experiments
//	ispy run <id> [<id>...]   run experiments (e.g. fig10 fig11)
//	ispy all                  run every experiment
//	ispy sweep <knob>         sensitivity sweep: preds|coalesce|hash|mindist|maxdist
//	ispy apps                 describe the nine application workloads
//	ispy scenario [<s>]       run a multi-tenant traffic scenario (spec or trace file)
//
// Flags:
//
//	-quick        reduced instruction budgets and app set (for smoke runs)
//	-apps a,b,c   restrict to specific applications
//	-instrs N     measured workload instructions per run (warmups rescale)
//	-cache-dir D  persist artifacts in D; later runs reuse them
//	-jobs N       worker-pool size shared by all parallel work
//	-timeout D    cancel the run after D (e.g. 10m); partial results still print
//	-v            live progress lines and an end-of-run telemetry summary
//	-faults S     deterministic fault-injection spec (testing; see internal/faults)
//	-fault-seed N seed for -faults decisions
//	-cpuprofile F write a pprof CPU profile of the run to F
//	-memprofile F write a pprof heap profile to F at exit
//	-scenario S   scenario spec string or recorded trace file (see docs/WORKLOADS.md)
//	-scenario-record F  write the composed trace (v2 format) to F for later replay
//
// Profiles are analyzed with `go tool pprof` (see docs/PERFORMANCE.md).
//
// Exit codes: 0 — fully clean run; 1 — the run completed but some work
// failed or was skipped (per-app failure, cancellation, timeout; see the run
// report on stderr); 2 — usage or configuration error. SIGINT/SIGTERM cancel
// the run: queued work is skipped, finished results and the report still
// print, and the process exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ispy/internal/core"
	"ispy/internal/experiments"
	"ispy/internal/faults"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// Exit codes (documented in the package comment and README).
const (
	exitOK      = 0 // fully clean run
	exitPartial = 1 // run completed with contained failures or skipped work
	exitUsage   = 2 // usage or configuration error
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is the whole CLI behind a single exit path: whatever happens
// after the lab exists flows through the epilogue below, so the run report
// and telemetry are always flushed and the exit code always reflects the
// report. Nothing in this package calls os.Exit except main itself.
func realMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ispy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced budgets and app set")
	apps := fs.String("apps", "", "comma-separated app subset")
	instrs := fs.Uint64("instrs", 0, "measured workload instructions per run")
	cacheDir := fs.String("cache-dir", "", "artifact cache directory (reused across runs)")
	jobs := fs.Int("jobs", 0, "worker-pool size (default: GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "cancel the run after this duration (partial results, exit 1)")
	verbose := fs.Bool("v", false, "print per-artifact progress and a telemetry summary")
	faultSpec := fs.String("faults", "", "fault-injection spec: pattern=kind[:prob],... (testing)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for -faults firing decisions")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	scenario := fs.String("scenario", "", "scenario spec or recorded trace file (see docs/WORKLOADS.md)")
	scenarioRecord := fs.String("scenario-record", "", "write the composed scenario trace (v2) to this file")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}

	args := fs.Args()
	if len(args) == 0 {
		if *scenario != "" {
			// `ispy -scenario <spec>` alone implies the scenario command.
			args = []string{"scenario"}
		} else {
			fs.Usage()
			return exitUsage
		}
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *apps != "" {
		sel := workload.ParseApps(*apps)
		if len(sel) == 0 {
			fmt.Fprintf(stderr, "ispy: -apps %q names no applications (valid: %s)\n",
				*apps, strings.Join(workload.AppNames, ", "))
			return exitUsage
		}
		cfg.Apps = sel
	}
	if *instrs != 0 {
		// Rescale the warmup and sweep budgets with the measured budget;
		// keeping them fixed would let the warmup swallow short runs.
		cfg = cfg.WithMeasureInstrs(*instrs)
	}
	cfg.Jobs = *jobs
	cfg.CacheDir = *cacheDir
	cfg.Verbose = *verbose
	if *faultSpec != "" {
		inj, err := faults.ParseSpec(*faultSeed, *faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "ispy: %v\n", err)
			return exitUsage
		}
		cfg.Faults = inj
	}

	// Profiling: both files are created up front so a bad path is a usage
	// error before any work runs, not a surprise at exit. The CPU profile
	// stops (and the heap profile is written) via defers, which run before
	// main's os.Exit for every return path below — including cancelled and
	// partially failed runs, whose profiles are exactly the interesting ones.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "ispy: -cpuprofile: %v\n", err)
			return exitUsage
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "ispy: -cpuprofile: %v\n", err)
			f.Close()
			return exitUsage
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "ispy: -memprofile: %v\n", err)
			return exitUsage
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "ispy: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	// The run context: SIGINT/SIGTERM and -timeout cancel it; the lab then
	// skips queued work and the epilogue reports what was abandoned.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("run exceeded -timeout %v", *timeout))
		defer cancel()
	}

	lab := experiments.NewLabContext(ctx, cfg)
	if err := lab.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}

	code := dispatch(lab, args, *scenario, *scenarioRecord, stdout, stderr)

	// Epilogue — the single flush point. Runs for every post-Validate path,
	// including usage errors, so partial state is never silently dropped.
	if s := lab.Report().Summary(); s != "" {
		fmt.Fprint(stderr, s)
	}
	if code == exitOK && !lab.Report().Clean() {
		code = exitPartial
	}
	if *verbose {
		fmt.Fprintln(stderr, lab.Telemetry().Summary())
	}
	return code
}

// dispatch routes the subcommand. It never calls os.Exit; usage errors
// return exitUsage and partial failures surface through the lab's report.
func dispatch(lab *experiments.Lab, args []string, scenarioArg, scenarioRecord string, stdout, stderr io.Writer) int {
	switch args[0] {
	case "list":
		for _, s := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", s.ID, s.Title)
		}
		return exitOK
	case "apps":
		describeApps(stdout)
		return exitOK
	case "all":
		ids := make([]string, 0)
		for _, s := range experiments.All() {
			ids = append(ids, s.ID)
		}
		return runExperiments(lab, ids, stdout, stderr)
	case "run":
		if len(args) < 2 {
			fmt.Fprintln(stderr, "ispy run: need at least one experiment id (see `ispy list`)")
			return exitUsage
		}
		return runExperiments(lab, args[1:], stdout, stderr)
	case "sweep":
		if len(args) < 2 {
			fmt.Fprintln(stderr, "ispy sweep: need a knob: preds|coalesce|hash|mindist|maxdist")
			return exitUsage
		}
		return runSweep(lab, args[1], stdout, stderr)
	case "scenario":
		if len(args) >= 2 {
			scenarioArg = args[1]
		}
		return runScenario(lab, scenarioArg, scenarioRecord, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "ispy: unknown command %q\n", args[0])
		return exitUsage
	}
}

// runScenario evaluates a multi-tenant traffic scenario. The argument is
// either a spec string (see docs/WORKLOADS.md for the grammar) or the path
// of a recorded trace v2 file to replay; malformed specs, unknown presets,
// and undecodable traces are usage errors (exit 2) before any work runs.
// Runtime failures are contained by the lab and surface as a partial run.
func runScenario(lab *experiments.Lab, arg, record string, stdout, stderr io.Writer) int {
	if arg == "" {
		fmt.Fprintln(stderr, "ispy scenario: need a spec string or trace file (operand or -scenario)")
		return exitUsage
	}

	// A readable file is a recorded trace; anything else parses as a spec.
	var trace *traceio.ScenarioTrace
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		data, err := os.ReadFile(arg)
		if err != nil {
			fmt.Fprintf(stderr, "ispy scenario: %v\n", err)
			return exitUsage
		}
		trace, err = traceio.DecodeScenario(data)
		if err != nil {
			fmt.Fprintf(stderr, "ispy scenario: %s: %v\n", arg, err)
			return exitUsage
		}
		// Validate the tenant population (unknown presets and all) up front
		// so the failure is a usage error, not a contained runtime one.
		if _, err := traffic.SpecFromTrace(trace); err != nil {
			fmt.Fprintf(stderr, "ispy scenario: %s: %v\n", arg, err)
			return exitUsage
		}
	} else {
		spec, err := traffic.ParseSpec(arg)
		if err != nil {
			fmt.Fprintf(stderr, "ispy scenario: %v\n", err)
			return exitUsage
		}
		trace = traffic.Compose(spec)
	}

	var res *experiments.ScenarioResult
	lab.Attempt(trace.Name, "scenario", func() error {
		r, err := lab.ScenarioTrace(trace)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if res == nil {
		// The failure is already in the run report; the epilogue turns the
		// unclean report into exit 1.
		return exitOK
	}
	fmt.Fprint(stdout, res.Render())

	if record != "" {
		if err := os.WriteFile(record, traceio.AppendScenario(nil, res.Trace), 0o666); err != nil {
			fmt.Fprintf(stderr, "ispy scenario: -scenario-record: %v\n", err)
			return exitPartial
		}
		fmt.Fprintf(stderr, "ispy: recorded scenario trace to %s\n", record)
	}
	return exitOK
}

// runExperiments validates every id up front (an unknown id is a usage
// error before any work starts), then runs the experiments on the lab's one
// schedule (Lab.RunExperiments) and prints each result in request order as
// soon as it and every result before it are done. Once the run context is
// done, experiments that have not started are recorded as skipped rather
// than silently dropped, and already-printed results stand.
func runExperiments(lab *experiments.Lab, ids []string, stdout, stderr io.Writer) int {
	specs := make([]experiments.Spec, len(ids))
	for i, id := range ids {
		s, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(stderr, "ispy: unknown experiment %q (see `ispy list`)\n", id)
			return exitUsage
		}
		specs[i] = s
	}
	lab.RunExperiments(specs, func(s experiments.Spec, res *experiments.Result, ready time.Duration) {
		fmt.Fprintln(stdout, res.String())
		fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", s.ID, ready.Seconds())
	})
	return exitOK
}

// runSweep exposes the sensitivity knobs generically through the figures'
// sweep grid: it reuses each app's cached analysis intermediates and prints
// the mean %-of-ideal per setting. A failing point degrades to a smaller
// mean, not an aborted sweep.
func runSweep(lab *experiments.Lab, knob string, stdout, stderr io.Writer) int {
	var labels []string
	var sets []func(*core.Options)
	add := func(label string, set func(*core.Options)) {
		labels = append(labels, label)
		sets = append(sets, set)
	}
	fresh := false // window knobs invalidate the cached contexts
	switch knob {
	case "preds":
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			add(fmt.Sprintf("preds=%d", k), func(o *core.Options) { o.MaxPreds = k })
		}
	case "coalesce":
		for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
			add(fmt.Sprintf("bits=%d", b), func(o *core.Options) { o.CoalesceBits = b })
		}
	case "hash":
		for _, b := range []int{4, 8, 16, 32, 64} {
			add(fmt.Sprintf("hash=%d", b), func(o *core.Options) { o.HashBits = b })
		}
	case "mindist":
		for _, d := range []uint64{5, 10, 20, 27, 50, 100} {
			add(fmt.Sprintf("min=%d", d), func(o *core.Options) { o.MinDistCycles = d })
		}
		fresh = true
	case "maxdist":
		for _, d := range []uint64{50, 100, 200, 300, 400} {
			add(fmt.Sprintf("max=%d", d), func(o *core.Options) { o.MaxDistCycles = d })
		}
		fresh = true
	default:
		fmt.Fprintf(stderr, "ispy sweep: unknown knob %q\n", knob)
		return exitUsage
	}
	means := lab.SweepGrid("sweep", labels, func(a *experiments.App, i int) *sim.Stats {
		opt := core.DefaultOptions()
		sets[i](&opt)
		if fresh {
			return a.FreshVariantStats(opt, a.SweepCfg())
		}
		return a.ISPYVariantStats(opt, a.SweepCfg())
	})
	for i, m := range means {
		if m.Ran == 0 {
			fmt.Fprintf(stdout, "%-12s    n/a (every app failed or was skipped)\n", labels[i])
			continue
		}
		note := ""
		if missed := len(lab.Cfg.Apps) - m.Ran; missed > 0 {
			note = fmt.Sprintf("; %d failed or skipped", missed)
		}
		fmt.Fprintf(stdout, "%-12s %6.1f%% of ideal (mean over %d apps%s)\n", labels[i], m.PctOfIdeal, m.Ran, note)
	}
	return exitOK
}

func describeApps(stdout io.Writer) {
	fmt.Fprintf(stdout, "%-16s %9s %8s %7s %7s %7s\n", "app", "text", "blocks", "funcs", "types", "engine")
	for _, name := range workload.AppNames {
		w := workload.Preset(name)
		engine := "-"
		if w.Params.EngineSlots > 0 {
			engine = fmt.Sprintf("%d slots", w.Params.EngineSlots)
		}
		fmt.Fprintf(stdout, "%-16s %8.0fKB %8d %7d %7d %7s\n",
			name, float64(w.Prog.TextSize)/1024, len(w.Prog.Blocks), len(w.Prog.Funcs), w.NumTypes, engine)
	}
}

func usage(stderr io.Writer, fs *flag.FlagSet) {
	fmt.Fprintf(stderr, `ispy — reproduction harness for I-SPY (MICRO 2020)

usage:
  ispy [flags] list
  ispy [flags] apps
  ispy [flags] run <experiment-id>...
  ispy [flags] sweep {preds|coalesce|hash|mindist|maxdist}
  ispy [flags] all
  ispy [flags] scenario [<spec-or-trace-file>]   (or just: ispy -scenario <s>)

exit codes: 0 clean run; 1 partial failure (see run report); 2 usage error

flags:
`)
	fs.PrintDefaults()
}
