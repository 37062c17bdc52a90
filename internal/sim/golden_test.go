// Golden-equivalence tests: the fast-path kernel (Run) must produce
// bit-identical statistics to the reference kernel (RunReference) — same
// Cycles, same stall accountings, same per-level cache counters, same
// prefetch bookkeeping — on every app preset, with and without injected
// prefetches, hardware window prefetchers, and hooks. This is the invariant
// that lets every future optimization of the hot path be validated
// mechanically instead of argued about; see DESIGN.md §9.
package sim_test

import (
	"fmt"

	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/lbr"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
	"testing"
)

// goldenCfg returns a reduced-budget configuration that still crosses the
// warmup/measure boundary (so batch-carryover bugs across the stats reset
// would surface as divergence).
func goldenCfg(w *workload.Workload) sim.Config {
	cfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	cfg.MaxInstrs = 120_000
	cfg.WarmupInstrs = 30_000
	return cfg
}

// runBoth executes the same (program, config) pair under both kernels with
// fresh identically-seeded executors and fails on any field difference.
// sim.Stats contains only value fields, so == compares every counter.
func runBoth(t *testing.T, label string, w *workload.Workload, prog *isa.Program, cfg sim.Config) {
	t.Helper()
	ref := sim.RunReference(prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
	opt := sim.Run(prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
	if *ref != *opt {
		t.Errorf("%s: kernels diverge\n reference: %+v\n fast path: %+v", label, *ref, *opt)
	}
}

// TestGoldenEquivalenceAllApps pins the fast path to the reference on the
// un-injected program of every app preset, plus the Ideal upper bound and
// the Contiguous-8 hardware window prefetcher.
func TestGoldenEquivalenceAllApps(t *testing.T) {
	for _, name := range workload.AppNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workload.Preset(name)
			cfg := goldenCfg(w)
			runBoth(t, name+"/base", w, w.Prog, cfg)

			ideal := cfg
			ideal.Ideal = true
			runBoth(t, name+"/ideal", w, w.Prog, ideal)

			hw := asmdb.ContiguousConfig(cfg, 8)
			runBoth(t, name+"/contig8", w, w.Prog, hw)
		})
	}
}

// TestGoldenEquivalenceInjected pins the kernels on an I-SPY-injected
// program (conditional + coalesced prefetches live on the hot path) and on
// the profile-gated Non-contiguous-8 hardware prefetcher, which exercises
// the LineMask lookup against the reference's identical reads.
func TestGoldenEquivalenceInjected(t *testing.T) {
	w := workload.Preset("wordpress")
	cfg := goldenCfg(w)
	p := profile.Collect(w, workload.DefaultInput(w), cfg)
	build := core.BuildISPY(p, cfg, core.DefaultOptions())
	runBoth(t, "wordpress/ispy", w, build.Prog, cfg)

	noncontig := asmdb.NonContiguousConfig(cfg, p, 8)
	runBoth(t, "wordpress/noncontig8", w, w.Prog, noncontig)

	mru := asmdb.RunConfig(cfg)
	runBoth(t, "wordpress/ispy-mru", w, build.Prog, mru)
}

// TestRecycledHierarchiesMatchReference runs, back to back on one
// goroutine, configurations that leave different state in the hierarchy
// the next Run takes from the free list: a base run, an Ideal run,
// Contiguous-8, the masked Non-contiguous-8, tomcat's I-SPY program, and
// the AsmDB program under asmdb.RunConfig, whose PrefetchAtMRU hierarchy
// is a configuration of its own. The sequence runs twice, so every kind
// also runs on a recycled hierarchy. Each run must equal RunReference.
func TestRecycledHierarchiesMatchReference(t *testing.T) {
	w := workload.Preset("tomcat")
	cfg := goldenCfg(w)
	p := profile.Collect(w, workload.DefaultInput(w), cfg)
	ideal := cfg
	ideal.Ideal = true
	runs := []struct {
		label string
		prog  *isa.Program
		cfg   sim.Config
	}{
		{"base", w.Prog, cfg},
		{"ideal", w.Prog, ideal},
		{"contig8", w.Prog, asmdb.ContiguousConfig(cfg, 8)},
		{"noncontig8", w.Prog, asmdb.NonContiguousConfig(cfg, p, 8)},
		{"ispy", core.BuildISPY(p, cfg, core.DefaultOptions()).Prog, cfg},
		{"asmdb", asmdb.BuildDefault(p, core.DefaultOptions()).Prog, asmdb.RunConfig(cfg)},
	}
	for round := 0; round < 2; round++ {
		for _, r := range runs {
			runBoth(t, fmt.Sprintf("tomcat/%s/round%d", r.label, round), w, r.prog, r.cfg)
		}
	}
}

// TestGoldenEquivalenceHooks verifies the kernels drive the profiling hooks
// identically: same number of OnBlock and OnMiss callbacks, with the same
// (block, delta, cycle) triples in the same order.
func TestGoldenEquivalenceHooks(t *testing.T) {
	type missEv struct {
		block int
		delta int32
		cycle uint64
	}
	collect := func(run func(*isa.Program, sim.BlockSource, sim.Config, *sim.Hooks) *sim.Stats) (blocks uint64, misses []missEv) {
		w := workload.Preset("finagle-http")
		cfg := goldenCfg(w)
		hooks := &sim.Hooks{
			OnBlock: func(block int, cycle uint64, l *lbr.LBR) { blocks++ },
			OnMiss: func(block int, delta int32, cycle uint64, l *lbr.LBR) {
				misses = append(misses, missEv{block, delta, cycle})
			},
		}
		run(w.Prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, hooks)
		return
	}
	refBlocks, refMisses := collect(sim.RunReference)
	optBlocks, optMisses := collect(sim.Run)
	if refBlocks != optBlocks {
		t.Errorf("OnBlock count diverges: reference %d, fast path %d", refBlocks, optBlocks)
	}
	if len(refMisses) != len(optMisses) {
		t.Fatalf("OnMiss count diverges: reference %d, fast path %d", len(refMisses), len(optMisses))
	}
	for i := range refMisses {
		if refMisses[i] != optMisses[i] {
			t.Fatalf("OnMiss[%d] diverges: reference %+v, fast path %+v", i, refMisses[i], optMisses[i])
		}
	}
}

// TestBatchSourceMatchesNext pins the NextN contract: the batched stream
// must be exactly the sequence repeated Next/LastWasTaken calls produce.
func TestBatchSourceMatchesNext(t *testing.T) {
	w := workload.Preset("drupal")
	a := workload.NewExecutor(w, workload.DefaultInput(w))
	b := workload.NewExecutor(w, workload.DefaultInput(w))
	ids := make([]int32, 97) // deliberately odd batch size
	taken := make([]bool, 97)
	for step := 0; step < 50; step++ {
		n := b.NextN(ids, taken)
		if n != len(ids) {
			t.Fatalf("NextN returned %d, want %d", n, len(ids))
		}
		for i := 0; i < n; i++ {
			want := a.Next()
			if int(ids[i]) != want {
				t.Fatalf("batch block %d of step %d: got %d, want %d", i, step, ids[i], want)
			}
			if taken[i] != a.LastWasTaken() {
				t.Fatalf("batch taken %d of step %d: got %v, want %v", i, step, taken[i], a.LastWasTaken())
			}
		}
		if b.LastWasTaken() != a.LastWasTaken() {
			t.Fatalf("LastWasTaken diverges after step %d", step)
		}
	}
	if a.Requests != b.Requests || a.Depth() != b.Depth() {
		t.Errorf("executor state diverges: requests %d/%d, depth %d/%d",
			a.Requests, b.Requests, a.Depth(), b.Depth())
	}
}
