package cache

import (
	"testing"

	"ispy/internal/isa"
	"ispy/internal/rng"
)

// refEquivCfg is small enough that a short operation stream fills every
// set, so evictions, redundant inserts and half-priority placement all
// happen. Operations address refEquivLines lines, twice the capacity, which
// keeps the sets contended.
var (
	refEquivCfg   = Config{Name: "EQ", SizeBytes: 16 * isa.LineSize, Ways: 4, Latency: 3}
	refEquivLines = 2 * refEquivCfg.Sets() * refEquivCfg.Ways
)

// runRefEquivalence drives the production Cache and the preserved reference
// RefCache with one operation stream, three bytes per operation (kind,
// address, arrival jitter), and fails at the first step where a result, a
// residency or a statistic differs. Kinds, by the first byte out of 256:
// lookups, demand fills, half-priority and MRU-priority prefetch fills (63
// values each), then a FlushUnusedPrefetchStats (2) or a Reset (2), so a
// random stream refills the caches between Resets.
func runRefEquivalence(t testing.TB, ops []byte) {
	c := New(refEquivCfg)
	r := NewRefCache(refEquivCfg)
	for step := 0; 3*step+2 < len(ops); step++ {
		op := ops[3*step : 3*step+3]
		a := isa.Addr(int(op[1])%refEquivLines) * isa.LineSize
		now := uint64(step)
		arr := now + 1 + uint64(op[2]%40)
		switch k := op[0]; {
		case k < 63:
			if got, want := c.Lookup(a, now), r.Lookup(a, now); got != want {
				t.Fatalf("step %d: Lookup(%#x) = %+v, reference %+v", step, a, got, want)
			}
		case k < 126:
			if got, want := c.Insert(a, now, now, false), r.Insert(a, now, now, false); got != want {
				t.Fatalf("step %d: Insert(%#x) = %v, reference %v", step, a, got, want)
			}
		case k < 189:
			if got, want := c.Insert(a, now, arr, true), r.Insert(a, now, arr, true); got != want {
				t.Fatalf("step %d: prefetch Insert(%#x) = %v, reference %v", step, a, got, want)
			}
		case k < 252:
			// MRU-priority prefetch (the §III-B ablation path).
			if got, want := c.InsertPrio(a, now, arr, true, false), r.InsertPrio(a, now, arr, true, false); got != want {
				t.Fatalf("step %d: InsertPrio(%#x) = %v, reference %v", step, a, got, want)
			}
		case k < 254:
			c.FlushUnusedPrefetchStats()
			r.FlushUnusedPrefetchStats()
		default:
			c.Reset()
			r.Reset()
		}
		if c.Contains(a) != r.Contains(a) {
			t.Fatalf("step %d: Contains(%#x) diverged", step, a)
		}
		if c.Stats != r.Stats {
			t.Fatalf("step %d: stats diverged:\n fast %+v\n  ref %+v", step, c.Stats, r.Stats)
		}
	}
	c.FlushUnusedPrefetchStats()
	r.FlushUnusedPrefetchStats()
	if c.Stats != r.Stats {
		t.Fatalf("after flush: stats diverged:\n fast %+v\n  ref %+v", c.Stats, r.Stats)
	}
}

// TestRefCacheEquivalence runs a long random operation stream, Resets and
// flushes included, through runRefEquivalence, then checks that a Reset
// leaves nothing behind and that a flush right after one counts nothing.
// The sim-level golden tests pin the same property end to end; this one
// localizes a divergence to the cache layer.
func TestRefCacheEquivalence(t *testing.T) {
	rnd := rng.New(7)
	ops := make([]byte, 3*20000)
	for i := range ops {
		ops[i] = byte(rnd.Uint64())
	}
	runRefEquivalence(t, ops)

	c := New(refEquivCfg)
	r := NewRefCache(refEquivCfg)
	for i := 0; i < refEquivLines; i++ {
		a := isa.Addr(i) * isa.LineSize
		c.Insert(a, uint64(i), uint64(i)+9, true)
		r.Insert(a, uint64(i), uint64(i)+9, true)
	}
	c.Reset()
	r.Reset()
	c.FlushUnusedPrefetchStats()
	r.FlushUnusedPrefetchStats()
	if c.Stats != (Stats{}) || r.Stats != (Stats{}) {
		t.Fatalf("flush after Reset counted stale lines:\n fast %+v\n  ref %+v", c.Stats, r.Stats)
	}
	for i := 0; i < refEquivLines; i++ {
		if a := isa.Addr(i) * isa.LineSize; c.Contains(a) || r.Contains(a) {
			t.Fatalf("line %#x resident after Reset", a)
		}
	}
}

// FuzzRefCacheEquivalence lets the fuzzer choose the operation stream,
// Resets included.
func FuzzRefCacheEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{70, 0, 0, 0, 0, 0, 255, 0, 0, 0, 0, 0, 70, 0, 0})
	f.Add([]byte{150, 1, 9, 150, 9, 3, 200, 17, 30, 254, 0, 0, 150, 1, 9, 253, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runRefEquivalence(t, ops) })
}
