// ispy-profile separates the two halves of I-SPY's usage model (Fig. 9)
// the way a production deployment would: profile collection runs where the
// workload runs and writes a compact profile file; the offline analysis
// consumes that file at build time and emits the injected binary.
//
// Usage:
//
//	ispy-profile collect -app wordpress -o wp.profile
//	    run the workload under the profiling simulator and save the
//	    miss-annotated dynamic CFG
//
//	ispy-profile build -profile wp.profile -o wp.ispy [-asmdb]
//	    run the offline analysis against a saved profile and save the
//	    injected program
//
//	ispy-profile eval -app wordpress -prog wp.ispy
//	    simulate a saved injected program and report speedup vs baseline
//
//	ispy-profile info -profile wp.profile | -prog wp.ispy
//	    describe a saved artifact
package main

import (
	"flag"
	"fmt"
	"os"

	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/metrics"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "collect":
		err = collect(os.Args[2:])
	case "build":
		err = build(os.Args[2:])
	case "eval":
		err = eval(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ispy-profile:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ispy-profile collect -app <name> -o <file> [-instrs N]
  ispy-profile build   -profile <file> -o <file> [-asmdb]
  ispy-profile eval    -app <name> -prog <file> [-instrs N]
  ispy-profile info    -profile <file> | -prog <file>`)
}

func simCfgFor(w *workload.Workload, instrs uint64) sim.Config {
	c := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	if instrs > 0 {
		c.MaxInstrs = instrs
	}
	return c
}

func collect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	app := fs.String("app", "wordpress", "application preset")
	out := fs.String("o", "", "output profile file")
	instrs := fs.Uint64("instrs", 0, "measured instructions (0 = default)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("collect: -o is required")
	}
	if _, err := workload.LookupParams(*app); err != nil {
		return err
	}
	w := workload.Preset(*app)
	prof := profile.Collect(w, workload.DefaultInput(w), simCfgFor(w, *instrs))
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := traceio.WriteProfile(f, traceio.ProfileDataOf(prof)); err != nil {
		return err
	}
	fmt.Printf("profiled %s: %d misses over %d lines → %s\n",
		w.Name, prof.Graph.TotalMisses, len(prof.Graph.Sites), *out)
	return nil
}

// loadProfile reconstructs a live profile from a saved one by regenerating
// the (deterministic) workload it names.
func loadProfile(path string) (*profile.Profile, *traceio.ProfileData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	pd, err := traceio.ReadProfile(f)
	if err != nil {
		return nil, nil, err
	}
	prof, err := pd.Rebind()
	return prof, pd, err
}

func build(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	profPath := fs.String("profile", "", "input profile file")
	out := fs.String("o", "", "output program file")
	useAsmdb := fs.Bool("asmdb", false, "run the AsmDB baseline analysis instead of I-SPY")
	fs.Parse(args)
	if *profPath == "" || *out == "" {
		return fmt.Errorf("build: -profile and -o are required")
	}
	prof, _, err := loadProfile(*profPath)
	if err != nil {
		return err
	}
	scfg := simCfgFor(prof.Workload, 0)
	var b *core.Build
	if *useAsmdb {
		b = asmdb.BuildDefault(prof, core.DefaultOptions())
	} else {
		b = core.BuildISPY(prof, scfg, core.DefaultOptions())
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := traceio.WriteProgram(f, b.Prog); err != nil {
		return err
	}
	_, n := b.Prog.PrefetchBytes()
	fmt.Printf("injected %d prefetch instructions (+%.1f%% static) → %s\n",
		n, b.StaticIncrease(prof.Workload.Prog)*100, *out)
	return nil
}

func eval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	app := fs.String("app", "", "application preset the program was built for")
	progPath := fs.String("prog", "", "saved injected program")
	instrs := fs.Uint64("instrs", 0, "measured instructions (0 = default)")
	fs.Parse(args)
	if *app == "" || *progPath == "" {
		return fmt.Errorf("eval: -app and -prog are required")
	}
	if _, err := workload.LookupParams(*app); err != nil {
		return err
	}
	w := workload.Preset(*app)
	f, err := os.Open(*progPath)
	if err != nil {
		return err
	}
	defer f.Close()
	prog, err := traceio.ReadProgram(f)
	if err != nil {
		return err
	}
	if len(prog.Blocks) != len(w.Prog.Blocks) {
		return fmt.Errorf("program has %d blocks; %s generates %d — wrong app?",
			len(prog.Blocks), *app, len(w.Prog.Blocks))
	}
	cfg := simCfgFor(w, *instrs)
	base := sim.Run(w.Prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
	st := sim.Run(prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
	fmt.Printf("%s: +%.1f%% speedup, MPKI %.2f → %.2f (%.1f%% reduction), accuracy %.1f%%\n",
		*app, metrics.SpeedupPct(base.Cycles, st.Cycles),
		base.MPKI(), st.MPKI(), metrics.Reduction(base.MPKI(), st.MPKI()),
		st.PrefetchAccuracy()*100)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	profPath := fs.String("profile", "", "profile file")
	progPath := fs.String("prog", "", "program file")
	fs.Parse(args)
	switch {
	case *profPath != "":
		_, pd, err := loadProfile(*profPath)
		if err != nil {
			return err
		}
		fmt.Printf("profile of %s (input %q): %d misses, %d sites, hash density %.3f, base CPI %.2f\n",
			pd.WorkloadName, pd.InputName, pd.TotalMisses, len(pd.Graph.Sites),
			pd.AvgHashDensity, float64(pd.BaseCycles)/float64(pd.BaseInstrs))
	case *progPath != "":
		f, err := os.Open(*progPath)
		if err != nil {
			return err
		}
		defer f.Close()
		prog, err := traceio.ReadProgram(f)
		if err != nil {
			return err
		}
		kinds := prog.NumPrefetches()
		fmt.Printf("program: %d funcs, %d blocks, %d KB text; prefetches: %d plain, %d Cprefetch, %d Lprefetch, %d CLprefetch\n",
			len(prog.Funcs), len(prog.Blocks), prog.TextSize>>10,
			kinds[isa.KindPrefetch], kinds[isa.KindCprefetch],
			kinds[isa.KindLprefetch], kinds[isa.KindCLprefetch])
	default:
		return fmt.Errorf("info: need -profile or -prog")
	}
	return nil
}
