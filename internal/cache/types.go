// Shared cache-level types: configuration, per-level counters, and lookup
// outcomes. These live apart from the structure-of-arrays fast path in
// cache.go because both hierarchies — the optimized one and the preserved
// reference kernel in reference.go — speak them, and the reference-freeze
// invariant forbids reference.go from touching anything declared in
// cache.go (sim/freeze_guard_test.go pins its bytes, DESIGN.md §9).
package cache

import (
	"fmt"

	"ispy/internal/isa"
)

// Config describes one cache level.
type Config struct {
	// Name appears in diagnostics ("L1I", "L2", …).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// Latency is the load-to-use latency in cycles when this level serves an
	// access (Table I values are absolute, not additive).
	Latency uint64
}

// Sets returns the number of sets the configuration implies.
func (c Config) Sets() int { return c.SizeBytes / (isa.LineSize * c.Ways) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(isa.LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: sets %d not a power of two", c.Name, s)
	}
	return nil
}

// Stats accumulates per-level counters.
type Stats struct {
	// Accesses and Misses count demand lookups.
	Accesses uint64
	Misses   uint64
	// PrefetchInserts counts lines inserted by prefetches.
	PrefetchInserts uint64
	// PrefetchUseful counts prefetched lines later touched by a demand
	// access (including late arrivals that absorbed part of a stall).
	PrefetchUseful uint64
	// PrefetchUseless counts prefetched lines evicted (or invalidated)
	// without ever being demand-touched — cache pollution.
	PrefetchUseless uint64
	// PrefetchLate counts demand accesses that found their line still in
	// flight and had to wait for the remaining latency.
	PrefetchLate uint64
	// PrefetchRedundant counts prefetch inserts that found the line already
	// resident (cheap, per §VII, but tracked).
	PrefetchRedundant uint64
}

// LookupResult describes the outcome of a demand lookup.
type LookupResult struct {
	// Hit is true when the line is resident (possibly still in flight).
	Hit bool
	// Wait is the extra cycles until an in-flight line arrives (0 if the
	// data is already present).
	Wait uint64
	// WasPrefetch is true when this demand access is the first touch of a
	// prefetched line (it "used" the prefetch).
	WasPrefetch bool
}
