// ispy-diag is the developer diagnostics tool: side-by-side per-application
// comparisons of baseline / ideal / AsmDB / I-SPY, and residual-miss
// decomposition for the injected binary. It exposes the raw numbers the
// polished experiment harness (cmd/ispy) aggregates.
//
// Usage:
//
//	ispy-diag compare [app...]    one-line comparison per app (default: all)
//	ispy-diag residual [app...]   decompose I-SPY's remaining misses
package main

import (
	"fmt"
	"os"
	"time"

	"ispy/internal/experiments"
	"ispy/internal/isa"
	"ispy/internal/metrics"
	"ispy/internal/sim"
)

func main() {
	cmd := "compare"
	args := os.Args[1:]
	if len(args) > 0 {
		cmd = args[0]
		args = args[1:]
	}
	run := map[string]func(*experiments.App){"compare": compare, "residual": residual}[cmd]
	// The lab at its default budget (no apps named means all nine) computes
	// every artifact exactly as the harness does.
	lab := experiments.NewLab(experiments.Config{Apps: args})
	if err := lab.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ispy-diag: %v\n", err)
		run = nil
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "usage: ispy-diag {compare|residual} [app...]\n")
		os.Exit(2)
	}
	for _, a := range lab.Apps() {
		run(a)
	}
}

func compare(a *experiments.App) {
	t0 := time.Now()
	base, ideal := a.Base(), a.Ideal()
	adb, adbStats := a.AsmDB(), a.AsmDBStats()
	ispy, ispyStats := a.ISPY(), a.ISPYStats()
	prog := a.Workload().Prog

	sp := func(s *sim.Stats) float64 { return metrics.SpeedupPct(base.Cycles, s.Cycles) }
	pctIdeal := func(s *sim.Stats) float64 { return metrics.PctOfIdeal(base.Cycles, s.Cycles, ideal.Cycles) }
	kc := ispy.Plan.KindCounts()
	fmt.Printf("%-16s ideal=%5.1f%% asmdb=%5.1f%%(%4.0f%%id acc=%4.1f%% dyn=%4.1f%% mpki=%5.2f) ispy=%5.1f%%(%4.0f%%id acc=%4.1f%% dyn=%4.1f%% mpki=%5.2f fp=%4.1f%%) baseMPKI=%5.2f kinds=[P%d C%d L%d CL%d] stat=%.1f%%/%.1f%% [%.1fs]\n",
		a.Name, sp(ideal),
		sp(adbStats), pctIdeal(adbStats), adbStats.PrefetchAccuracy()*100, adbStats.DynFootprintIncrease()*100, adbStats.MPKI(),
		sp(ispyStats), pctIdeal(ispyStats), ispyStats.PrefetchAccuracy()*100, ispyStats.DynFootprintIncrease()*100, ispyStats.MPKI(),
		ispyStats.CondFalsePositiveRate()*100,
		base.MPKI(),
		kc[isa.KindPrefetch], kc[isa.KindCprefetch], kc[isa.KindLprefetch], kc[isa.KindCLprefetch],
		adb.StaticIncrease(prog)*100, ispy.StaticIncrease(prog)*100,
		time.Since(t0).Seconds())
}
