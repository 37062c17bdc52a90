// Residual-miss decomposition: classify the misses that remain after I-SPY
// injection by (a) whether the line was profiled and planned, and (b) which
// program component it belongs to. This is the view that drove the injection
// invariants in core (straddle coverage) during development.
package main

import (
	"fmt"
	"sort"
	"strings"

	"ispy/internal/cfg"
	"ispy/internal/experiments"
	"ispy/internal/lbr"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

func residual(a *experiments.App) {
	w, prof, ispy := a.Workload(), a.Profile(), a.ISPY()
	fmt.Printf("%s: hash density %.3f\n", a.Name, prof.AvgHashDensity)

	planned := make(map[cfg.LineKey]bool)
	for _, pf := range ispy.Plan.Prefetches {
		for _, t := range pf.Targets {
			planned[t] = true
		}
	}
	profiled := make(map[cfg.LineKey]uint64, len(prof.Graph.Sites))
	for k, s := range prof.Graph.Sites {
		profiled[k] = s.Count
	}

	byCat := map[string]uint64{}
	funcName := func(block int) string {
		return w.Prog.Funcs[w.Prog.Blocks[block].Func].Name
	}
	cat := func(fn string) string {
		switch {
		case strings.HasPrefix(fn, "fragment"):
			return "fragment"
		case strings.HasPrefix(fn, "handler"):
			return "handler"
		case strings.HasPrefix(fn, "parse_t"):
			return "parse_t"
		case strings.HasPrefix(fn, "helper"):
			return "helper"
		default:
			return fn
		}
	}

	var total uint64
	hooks := &sim.Hooks{OnMiss: func(block int, delta int32, cycle uint64, l *lbr.LBR) {
		total++
		key := cfg.LineKey{Block: int32(block), Delta: delta}
		status := "unprofiled" // line never missed during profiling
		if _, ok := profiled[key]; ok {
			status = "profiled-unplanned"
			if planned[key] {
				status = "planned" // prefetch existed but was late/suppressed/evicted
			}
		}
		byCat[status+"/"+cat(funcName(block))]++
	}}
	st := sim.Run(ispy.Prog, workload.NewExecutor(w, prof.Input), a.SimCfg(), hooks)

	fmt.Printf("  residual misses=%d mpki=%.2f (suppressed=%d lateWaits=%d condFired=%d/%d)\n",
		total, st.MPKI(), st.CondSuppressed, st.LateWaits, st.CondFired, st.CondExecuted)
	keys := make([]string, 0, len(byCat))
	for k := range byCat {
		keys = append(keys, k)
	}
	// Ties break by key: keys come from a map, so equal counts (and the cut
	// at 12) would otherwise print in a run-dependent order.
	sort.Slice(keys, func(i, j int) bool {
		if byCat[keys[i]] != byCat[keys[j]] {
			return byCat[keys[i]] > byCat[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for i, k := range keys {
		if i >= 12 {
			break
		}
		fmt.Printf("  %-42s %6d (%.1f%%)\n", k, byCat[k], float64(byCat[k])/float64(total)*100)
	}
}
