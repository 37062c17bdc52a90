// Reference cache: the pre-optimization implementation, preserved verbatim
// as the storage layer of the golden reference kernel (sim.RunReference).
//
// RefCache keeps the original array-of-structs layout — each way is one
// 40-byte struct with its own valid bit, and sets are reslices of a shared
// backing array — while the production Cache stores tags in a dense uint64
// array (structure-of-arrays). The two implementations share Config, Stats
// and the result types, and the golden-equivalence tests in internal/sim
// require them to produce bit-identical statistics on the same access
// stream. Keeping the reference on its own storage makes that a comparison
// between two independent implementations, and makes the benchmark ratio
// (the bench's sim.fastpath_ratio) an honest fast-vs-baseline number.
// Do not "optimize" this file: its point is to stay what the code was.
package cache

import "ispy/internal/isa"

// refLine is one cache way's state in the reference layout.
type refLine struct {
	tag        uint64
	valid      bool
	ts         uint64 // replacement timestamp; larger = more recently useful
	arrival    uint64 // cycle at which the data is present (0 = already)
	prefetched bool   // inserted by a prefetch and not yet demand-touched
}

// RefCache is the pre-optimization set-associative cache level. It matches
// Cache decision-for-decision (same replacement, same priority insertion,
// same counters) but keeps the original memory layout.
type RefCache struct {
	cfg     Config
	sets    [][]refLine
	setMask uint64
	clock   uint64
	Stats   Stats
}

// NewRefCache builds a reference cache from cfg, panicking on invalid
// geometry like New.
func NewRefCache(cfg Config) *RefCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &RefCache{cfg: cfg, sets: make([][]refLine, nsets), setMask: uint64(nsets - 1)}
	backing := make([]refLine, nsets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return c
}

// Config returns the cache's configuration.
func (c *RefCache) Config() Config { return c.cfg }

func (c *RefCache) indexOf(lineAddr isa.Addr) (set []refLine, tag uint64) {
	idx := isa.LineIndex(lineAddr)
	return c.sets[idx&c.setMask], idx
}

// Lookup performs a demand access at cycle now; see Cache.Lookup.
func (c *RefCache) Lookup(lineAddr isa.Addr, now uint64) LookupResult {
	c.Stats.Accesses++
	set, tag := c.indexOf(lineAddr)
	for i := range set {
		w := &set[i]
		if !w.valid || w.tag != tag {
			continue
		}
		c.clock++
		w.ts = c.clock
		res := LookupResult{Hit: true}
		if w.arrival > now {
			res.Wait = w.arrival - now
			c.Stats.PrefetchLate++
		}
		if w.prefetched {
			w.prefetched = false
			c.Stats.PrefetchUseful++
			res.WasPrefetch = true
		}
		return res
	}
	c.Stats.Misses++
	return LookupResult{}
}

// Contains reports residency without touching state; see Cache.Contains.
func (c *RefCache) Contains(lineAddr isa.Addr) bool {
	set, tag := c.indexOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Insert fills lineAddr into the cache at cycle now; see Cache.Insert.
func (c *RefCache) Insert(lineAddr isa.Addr, now, arrival uint64, prefetch bool) (evictedUnusedPrefetch bool) {
	return c.InsertPrio(lineAddr, now, arrival, prefetch, prefetch)
}

// InsertPrio is Insert with the priority decision decoupled from the
// usefulness tracking; see Cache.InsertPrio.
func (c *RefCache) InsertPrio(lineAddr isa.Addr, now, arrival uint64, prefetched, halfPriority bool) (evictedUnusedPrefetch bool) {
	set, tag := c.indexOf(lineAddr)
	// Already resident: refresh arrival if the resident copy is in flight.
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			if prefetched {
				c.Stats.PrefetchRedundant++
			}
			if w.arrival > arrival {
				w.arrival = arrival
			}
			return false
		}
	}
	// Choose a victim: first invalid way, else smallest timestamp.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].ts < set[victim].ts {
				victim = i
			}
		}
		if set[victim].prefetched {
			c.Stats.PrefetchUseless++
			evictedUnusedPrefetch = true
		}
	}
	c.clock++
	ts := c.clock
	if halfPriority {
		// Half priority: place the line midway between the set's coldest
		// resident line and MRU, so it outlives nothing hot.
		oldest := c.clock
		for i := range set {
			if set[i].valid && set[i].ts < oldest {
				oldest = set[i].ts
			}
		}
		ts = oldest + (c.clock-oldest)/2
	}
	if prefetched {
		c.Stats.PrefetchInserts++
	}
	set[victim] = refLine{tag: tag, valid: true, ts: ts, arrival: arrival, prefetched: prefetched}
	return evictedUnusedPrefetch
}

// FlushUnusedPrefetchStats folds still-resident, never-used prefetched
// lines into PrefetchUseless; see Cache.FlushUnusedPrefetchStats.
func (c *RefCache) FlushUnusedPrefetchStats() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			w := &c.sets[si][wi]
			if w.valid && w.prefetched {
				c.Stats.PrefetchUseless++
				w.prefetched = false
			}
		}
	}
}

// Reset invalidates all lines and zeroes statistics.
func (c *RefCache) Reset() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			c.sets[si][wi] = refLine{}
		}
	}
	c.clock = 0
	c.Stats = Stats{}
}

// RefHierarchy is the instruction-side hierarchy built on RefCache, used by
// the golden reference kernel. Behavior mirrors Hierarchy exactly.
type RefHierarchy struct {
	cfg HierarchyConfig
	l1i *RefCache
	l2  *RefCache
	l3  *RefCache
}

// NewRefHierarchy builds the reference hierarchy.
func NewRefHierarchy(cfg HierarchyConfig) *RefHierarchy {
	return &RefHierarchy{
		cfg: cfg,
		l1i: NewRefCache(cfg.L1I),
		l2:  NewRefCache(cfg.L2),
		l3:  NewRefCache(cfg.L3),
	}
}

// Config returns the hierarchy's configuration.
func (h *RefHierarchy) Config() HierarchyConfig { return h.cfg }

// L1I exposes the first-level instruction cache (stats, tests).
func (h *RefHierarchy) L1I() *RefCache { return h.l1i }

// L2 exposes the unified second-level cache.
func (h *RefHierarchy) L2() *RefCache { return h.l2 }

// L3 exposes the last-level cache.
func (h *RefHierarchy) L3() *RefCache { return h.l3 }

// FetchI performs a demand fetch of the instruction line at lineAddr at
// cycle now; see Hierarchy.FetchI.
func (h *RefHierarchy) FetchI(lineAddr isa.Addr, now uint64) FetchResult {
	lineAddr = isa.LineOf(lineAddr)
	if r := h.l1i.Lookup(lineAddr, now); r.Hit {
		return FetchResult{Stall: r.Wait, Level: LevelL1, UsedPrefetch: r.WasPrefetch}
	}
	if r := h.l2.Lookup(lineAddr, now); r.Hit {
		stall := h.cfg.L2.Latency + r.Wait
		h.l1i.Insert(lineAddr, now, now+stall, false)
		return FetchResult{Stall: stall, Miss: true, Level: LevelL2, UsedPrefetch: r.WasPrefetch}
	}
	if r := h.l3.Lookup(lineAddr, now); r.Hit {
		stall := h.cfg.L3.Latency + r.Wait
		h.l1i.Insert(lineAddr, now, now+stall, false)
		h.l2.Insert(lineAddr, now, now+stall, false)
		return FetchResult{Stall: stall, Miss: true, Level: LevelL3, UsedPrefetch: r.WasPrefetch}
	}
	stall := h.cfg.MemLatency
	h.l1i.Insert(lineAddr, now, now+stall, false)
	h.l2.Insert(lineAddr, now, now+stall, false)
	h.l3.Insert(lineAddr, now, now+stall, false)
	return FetchResult{Stall: stall, Miss: true, Level: LevelMem}
}

// PrefetchI issues a code prefetch for the line at lineAddr at cycle now;
// see Hierarchy.PrefetchI.
func (h *RefHierarchy) PrefetchI(lineAddr isa.Addr, now uint64) PrefetchResult {
	lineAddr = isa.LineOf(lineAddr)
	if h.l1i.Contains(lineAddr) {
		h.l1i.Stats.PrefetchRedundant++
		return PrefetchResult{Resident: true, Level: LevelL1}
	}
	var lat uint64
	var lvl Level
	half := !h.cfg.PrefetchAtMRU
	switch {
	case h.l2.Contains(lineAddr):
		lat, lvl = h.cfg.L2.Latency, LevelL2
	case h.l3.Contains(lineAddr):
		lat, lvl = h.cfg.L3.Latency, LevelL3
		h.l2.InsertPrio(lineAddr, now, now+lat, true, half)
	default:
		lat, lvl = h.cfg.MemLatency, LevelMem
		h.l2.InsertPrio(lineAddr, now, now+lat, true, half)
		h.l3.InsertPrio(lineAddr, now, now+lat, true, half)
	}
	h.l1i.InsertPrio(lineAddr, now, now+lat, true, half)
	return PrefetchResult{ServeLatency: lat, Level: lvl}
}

// Finish folds end-of-run prefetch state into statistics.
func (h *RefHierarchy) Finish() { h.l1i.FlushUnusedPrefetchStats() }

// Reset restores the hierarchy to cold state.
func (h *RefHierarchy) Reset() {
	h.l1i.Reset()
	h.l2.Reset()
	h.l3.Reset()
}
