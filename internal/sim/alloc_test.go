package sim_test

import (
	"testing"

	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// TestSteadyStateZeroAllocs proves dynamically what the ispy-vet hotpath
// pass proves statically: once the machine is warm — plans and hierarchy
// built, batch buffers allocated on the first runBatched call, the
// executor's call stack grown to its steady depth — the measured per-block
// loop of the fast-path kernel performs zero heap allocations. This is the
// AllocsPerRun companion to BenchmarkSimulatorThroughput's kernel: any
// regression here shows up there as allocation pressure first. It runs
// wordpress's unmodified program and an I-SPY build of it, whose
// conditional and coalesced prefetch instructions take execPrefetch, which
// the unmodified program never reaches. It counts the allocations of ten
// runs in one measurement, so growth that reallocates only now and then
// cannot average down to 0.
func TestSteadyStateZeroAllocs(t *testing.T) {
	w := workload.Preset("wordpress")
	cfg := goldenCfg(w)
	build := core.BuildISPY(profile.Collect(w, workload.DefaultInput(w), cfg), cfg, core.DefaultOptions())
	if len(build.Plan.Prefetches) == 0 {
		t.Fatal("the I-SPY build injected no prefetch")
	}
	for _, c := range []struct {
		name string
		prog *isa.Program
	}{{"base", w.Prog}, {"ispy", build.Prog}} {
		if n := sim.SteadyStateAllocs(c.prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg); n != 0 {
			t.Errorf("%s: steady-state kernel allocates: %v allocations over ten 100k-instruction runs, want 0", c.name, n)
		}
	}
}
