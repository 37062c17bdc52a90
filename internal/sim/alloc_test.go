package sim

import (
	"testing"

	"ispy/internal/workload"
)

// TestSteadyStateZeroAllocs proves dynamically what the ispy-vet hotpath
// pass proves statically: once the machine is warm — plans and hierarchy
// built, batch buffers allocated on the first runBatched call, the
// executor's call stack grown to its steady depth — the measured per-block
// loop of the fast-path kernel performs zero heap allocations. This is the
// AllocsPerRun companion to BenchmarkSimulatorThroughput's kernel: any
// regression here shows up there as allocation pressure first.
func TestSteadyStateZeroAllocs(t *testing.T) {
	w := workload.Preset("wordpress")
	cfg := Default().WithWorkloadCPI(w.Params.BackendCPI)
	cfg.setDefaults()
	m := newMachine(w.Prog, cfg, nil)
	src := workload.NewExecutor(w, workload.DefaultInput(w))

	// Warmup: the first run allocates the batch buffers and amortizes the
	// executor's call-stack capacity; run's budget is relative, so each
	// call advances the same machine.
	m.run(src, 200_000)

	avg := testing.AllocsPerRun(10, func() {
		m.run(src, 100_000)
	})
	if avg != 0 {
		t.Fatalf("steady-state kernel allocates: %v allocs per 100k-instruction run, want 0", avg)
	}
}
