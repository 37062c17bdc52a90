// Pool-sharded golden equivalence: the experiment lab and ispyd shard
// simulation work across one worker pool, and the runs they execute at the
// same time share a single read-only *isa.Program, *workload.Workload and
// Config (the lab's per-app memos hand the same base and injected programs,
// and the same profile-derived prefetch mask, to every cell). Each of those
// concurrent Run calls must still match RunReference bit for bit — Stats and
// hook event streams alike — which fails if the fast path ever writes to
// state it shares with another run. Under -race the concurrent runs also
// surface such writes as data races. See DESIGN.md §9.
package sim_test

import (
	"sync"
	"testing"

	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/lbr"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// shardWorkers is how many Run calls each check executes at once over the
// same shared inputs.
const shardWorkers = 4

// runShardedBoth runs the (program, config) pair once under the reference
// kernel, then shardWorkers times concurrently under Run over the same
// program and config, each with a fresh identically-seeded executor, and
// fails if any concurrent run diverges from the reference.
func runShardedBoth(t *testing.T, label string, w *workload.Workload, prog *isa.Program, cfg sim.Config) {
	t.Helper()
	ref := sim.RunReference(prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
	got := make([]*sim.Stats, shardWorkers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sim.Run(prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if *ref != *s {
			t.Errorf("%s/worker=%d: kernels diverge\n reference: %+v\n    worker: %+v", label, i, *ref, *s)
		}
	}
}

// TestShardedGoldenEquivalenceAllApps pins concurrent runs over one shared
// program to the reference on every preset, for the base, Ideal and
// Contiguous-8 configurations.
func TestShardedGoldenEquivalenceAllApps(t *testing.T) {
	for _, name := range workload.AppNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workload.Preset(name)
			cfg := goldenCfg(w)
			runShardedBoth(t, name+"/base", w, w.Prog, cfg)

			ideal := cfg
			ideal.Ideal = true
			runShardedBoth(t, name+"/ideal", w, w.Prog, ideal)

			hw := asmdb.ContiguousConfig(cfg, 8)
			runShardedBoth(t, name+"/contig8", w, w.Prog, hw)
		})
	}
}

// TestShardedGoldenEquivalenceInjected pins concurrent runs of one shared
// I-SPY-injected program (conditional and coalesced prefetches on the hot
// path), and of the profile-gated Non-contiguous-8 prefetcher whose LineMask
// every worker reads, to the reference.
func TestShardedGoldenEquivalenceInjected(t *testing.T) {
	w := workload.Preset("wordpress")
	cfg := goldenCfg(w)
	p := profile.Collect(w, workload.DefaultInput(w), cfg)
	build := core.BuildISPY(p, cfg, core.DefaultOptions())
	runShardedBoth(t, "wordpress/ispy", w, build.Prog, cfg)

	noncontig := asmdb.NonContiguousConfig(cfg, p, 8)
	runShardedBoth(t, "wordpress/noncontig8", w, w.Prog, noncontig)
}

// TestShardedGoldenEquivalenceHooks verifies that concurrent hooked runs
// over one shared program each drive their own hooks exactly as the
// reference kernel does: same OnBlock count, same (block, delta, cycle)
// OnMiss triples in the same order.
func TestShardedGoldenEquivalenceHooks(t *testing.T) {
	type missEv struct {
		block int
		delta int32
		cycle uint64
	}
	type events struct {
		blocks uint64
		misses []missEv
	}
	w := workload.Preset("finagle-http")
	cfg := goldenCfg(w)
	collect := func(run func(*isa.Program, sim.BlockSource, sim.Config, *sim.Hooks) *sim.Stats) *events {
		ev := &events{}
		hooks := &sim.Hooks{
			OnBlock: func(block int, cycle uint64, l *lbr.LBR) { ev.blocks++ },
			OnMiss: func(block int, delta int32, cycle uint64, l *lbr.LBR) {
				ev.misses = append(ev.misses, missEv{block, delta, cycle})
			},
		}
		run(w.Prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, hooks)
		return ev
	}
	ref := collect(sim.RunReference)
	got := make([]*events, shardWorkers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = collect(sim.Run)
		}(i)
	}
	wg.Wait()
	for i, ev := range got {
		if ref.blocks != ev.blocks {
			t.Errorf("worker %d: OnBlock count diverges: reference %d, worker %d", i, ref.blocks, ev.blocks)
		}
		if len(ref.misses) != len(ev.misses) {
			t.Errorf("worker %d: OnMiss count diverges: reference %d, worker %d", i, len(ref.misses), len(ev.misses))
			continue
		}
		for j := range ref.misses {
			if ref.misses[j] != ev.misses[j] {
				t.Errorf("worker %d: OnMiss[%d] diverges: reference %+v, worker %+v", i, j, ref.misses[j], ev.misses[j])
				break
			}
		}
	}
}
