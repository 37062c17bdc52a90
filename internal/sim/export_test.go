package sim

import (
	"testing"

	"ispy/internal/isa"
)

// SteadyStateAllocs warms a machine over prog on src, then returns the
// allocations of ten 100k-instruction runs of it, counted in one
// measurement: a mean per run would round amortized growth (an append that
// reallocates once in several runs) down to 0. It is exported to the
// external tests, which can build injected programs with core (core
// imports sim).
func SteadyStateAllocs(prog *isa.Program, src BlockSource, cfg Config) float64 {
	cfg.setDefaults()
	m := newMachine(prog, cfg, nil)

	// Warmup: the first run allocates the batch buffers and amortizes the
	// executor's call-stack capacity; run's budget is relative, so each
	// call advances the same machine.
	m.run(src, 200_000)

	return testing.AllocsPerRun(1, func() {
		for i := 0; i < 10; i++ {
			m.run(src, 100_000)
		}
	})
}
