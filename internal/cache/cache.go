// Package cache implements the set-associative caches and the three-level
// hierarchy of the simulated system (Table I), including the prefetch
// semantics I-SPY requires:
//
//   - In-flight timing: a prefetched line "arrives" latency-of-serving-level
//     cycles after the prefetch issues. A demand fetch that hits a line still
//     in flight stalls only for the remaining cycles (a late prefetch hides
//     part of the miss), which is what makes the minimum prefetch distance of
//     §VI-B meaningful.
//   - Half-priority insertion (§III-B): prefetched lines are inserted at half
//     of the highest replacement priority rather than at MRU, so inaccurate
//     prefetches age out quickly instead of displacing hot demand lines.
//   - Usefulness tracking: each prefetched line records whether a demand
//     access touched it before eviction, driving the prefetch-accuracy
//     metric (Fig. 13) and pollution accounting.
package cache

import (
	"ispy/internal/isa"
)

// invalidTag marks an empty way in the tag array. Real tags are line
// indexes (address >> log2(LineSize)), so ^0 — an address beyond 2^69 —
// can never collide with one; using a sentinel lets the probe loop compare
// tags with no separate valid-bit load.
const invalidTag = ^uint64(0)

// lineMeta is the non-tag state of one cache way. Tags live in a separate
// dense array so an 8-way probe touches a single 64-byte CPU cache line;
// this metadata is only loaded on a hit or during victim selection.
type lineMeta struct {
	ts         uint64 // replacement timestamp; larger = more recently useful
	arrival    uint64 // cycle at which the data is present (0 = already)
	prefetched bool   // inserted by a prefetch and not yet demand-touched
}

// Cache is a single set-associative cache level with LRU replacement and
// priority-aware insertion.
//
// Storage is split structure-of-arrays style: all tags live in one flat
// uint64 array (set i occupies tags[i*ways : (i+1)*ways]) and the remaining
// per-way state lives in a parallel lineMeta array. Set selection is a
// power-of-two mask plus one multiply, and a full 8-way probe reads one
// 64-byte CPU cache line of tags; timestamps, arrival times and prefetch
// flags are only touched on a hit or during victim selection. The in-flight
// arrival check (late-prefetch timing) is folded into the same probe that
// finds the hit.
//
// Sets are invalidated lazily. Each set carries the epoch of its last
// write; a set whose stamp differs from the cache's epoch is stale and reads
// as empty, whatever its arrays still hold, and its first write clears it.
// New and Reset therefore cost O(1) in the cache size: a run pays only for
// the sets it touches (the largest preset's code fills about 2% of the
// Table I L3).
type Cache struct {
	cfg     Config
	tags    []uint64   // nsets × ways, flat, set-major; invalidTag = empty
	meta    []lineMeta // parallel to tags
	stamp   []uint32   // per set: the epoch of its last write
	epoch   uint32     // never 0, so a zeroed stamp is always stale
	ways    int
	setMask uint64
	clock   uint64
	Stats   Stats
}

// New builds a cache from cfg, panicking on invalid geometry (a programming
// error, not a runtime condition). Every set starts stale, so the arrays
// need no fill.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets() * cfg.Ways
	return &Cache{
		cfg:     cfg,
		tags:    make([]uint64, n),
		meta:    make([]lineMeta, n),
		stamp:   make([]uint32, cfg.Sets()),
		epoch:   1,
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// indexOf returns lineAddr's set, the flat-array offset of that set, and
// the tag to match within it.
func (c *Cache) indexOf(lineAddr isa.Addr) (set, base int, tag uint64) {
	idx := isa.LineIndex(lineAddr)
	set = int(idx & c.setMask)
	return set, set * c.ways, idx
}

// Lookup performs a demand access at cycle now. On a hit it promotes the
// line to MRU and clears its prefetched flag (counting prefetch usefulness).
func (c *Cache) Lookup(lineAddr isa.Addr, now uint64) LookupResult {
	c.Stats.Accesses++
	set, base, tag := c.indexOf(lineAddr)
	for i, t := range c.tags[base : base+c.ways] {
		if t != tag {
			continue
		}
		if c.stamp[set] != c.epoch {
			break // a stale set's leftover tag is not resident
		}
		w := &c.meta[base+i]
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

// Contains reports whether the line is resident without touching replacement
// state or statistics (used by prefetch issue to detect redundant targets
// and by tests).
func (c *Cache) Contains(lineAddr isa.Addr) bool {
	set, base, tag := c.indexOf(lineAddr)
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return c.stamp[set] == c.epoch
		}
	}
	return false
}

// Insert fills lineAddr into the cache at cycle now.
//
// arrival is the cycle at which the data becomes available (== now for
// demand fills; now + serve latency for prefetch fills). prefetch selects
// the insertion priority: demand fills insert at MRU; prefetch fills insert
// at half priority per §III-B. Insert returns true when an unused prefetched
// line was evicted to make room (pollution).
func (c *Cache) Insert(lineAddr isa.Addr, now, arrival uint64, prefetch bool) (evictedUnusedPrefetch bool) {
	return c.InsertPrio(lineAddr, now, arrival, prefetch, prefetch)
}

// InsertPrio is Insert with the priority decision decoupled from the
// usefulness tracking: halfPriority selects §III-B's demoted insertion,
// prefetched marks the line for accuracy accounting. The ablation benchmark
// for the replacement-policy design choice inserts prefetches at MRU
// (prefetched=true, halfPriority=false) to quantify what §III-B buys.
func (c *Cache) InsertPrio(lineAddr isa.Addr, now, arrival uint64, prefetched, halfPriority bool) (evictedUnusedPrefetch bool) {
	set, base, tag := c.indexOf(lineAddr)
	tags := c.tags[base : base+c.ways]
	meta := c.meta[base : base+c.ways]
	if c.stamp[set] != c.epoch {
		// First write to the set this epoch: empty it.
		for i := range tags {
			tags[i] = invalidTag
			meta[i] = lineMeta{}
		}
		c.stamp[set] = c.epoch
	}
	// Already resident: refresh arrival if the resident copy is in flight.
	for i, t := range tags {
		if t == tag {
			if prefetched {
				c.Stats.PrefetchRedundant++
			}
			if meta[i].arrival > arrival {
				meta[i].arrival = arrival
			}
			return false
		}
	}
	// Choose a victim: first invalid way, else smallest timestamp.
	victim := -1
	for i, t := range tags {
		if t == invalidTag {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(meta); i++ {
			if meta[i].ts < meta[victim].ts {
				victim = i
			}
		}
		if meta[victim].prefetched {
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
		for i := range meta {
			if tags[i] != invalidTag && meta[i].ts < oldest {
				oldest = meta[i].ts
			}
		}
		ts = oldest + (c.clock-oldest)/2
	}
	if prefetched {
		c.Stats.PrefetchInserts++
	}
	tags[victim] = tag
	meta[victim] = lineMeta{ts: ts, arrival: arrival, prefetched: prefetched}
	return evictedUnusedPrefetch
}

// FlushUnusedPrefetchStats folds still-resident, never-used prefetched lines
// into PrefetchUseless. Call once at end of simulation so accuracy reflects
// lines that were fetched but never needed.
func (c *Cache) FlushUnusedPrefetchStats() {
	for set, st := range c.stamp {
		if st != c.epoch {
			continue
		}
		base := set * c.ways
		for i := base; i < base+c.ways; i++ {
			w := &c.meta[i]
			if c.tags[i] != invalidTag && w.prefetched {
				c.Stats.PrefetchUseless++
				w.prefetched = false
			}
		}
	}
}

// Reset invalidates all lines and zeroes statistics. It only advances the
// epoch, which makes every set stale; when the epoch wraps around, the
// stamps are cleared so that no set from an earlier cycle of epochs reads
// as current.
func (c *Cache) Reset() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamp)
		c.epoch = 1
	}
	c.clock = 0
	c.Stats = Stats{}
}
