package sim

import (
	"testing"

	"ispy/internal/isa"
)

// SteadyStateAllocs warms a machine over prog on src, then returns the
// average allocations of a 100k-instruction run of it. It is exported to
// the external tests, which can build injected programs with core (core
// imports sim).
func SteadyStateAllocs(prog *isa.Program, src BlockSource, cfg Config) float64 {
	cfg.setDefaults()
	m := newMachine(prog, cfg, nil)

	// Warmup: the first run allocates the batch buffers and amortizes the
	// executor's call-stack capacity; run's budget is relative, so each
	// call advances the same machine.
	m.run(src, 200_000)

	return testing.AllocsPerRun(10, func() {
		m.run(src, 100_000)
	})
}
