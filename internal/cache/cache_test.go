package cache

import (
	"math"
	"testing"
	"testing/quick"

	"ispy/internal/isa"
)

func tiny() Config {
	return Config{Name: "T", SizeBytes: 4 * isa.LineSize, Ways: 2, Latency: 3}
}

func TestConfigValidate(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "a", SizeBytes: 0, Ways: 2},
		{Name: "b", SizeBytes: 100, Ways: 2},                // not divisible
		{Name: "c", SizeBytes: 3 * 64 * 2, Ways: 2},         // 3 sets
		{Name: "d", SizeBytes: 64, Ways: -1},                // bad ways
		{Name: "e", SizeBytes: 64 * 6, Ways: 2, Latency: 1}, // 3 sets
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %v should be invalid", c)
		}
	}
	if got := tiny().Sets(); got != 2 {
		t.Errorf("Sets = %d", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(tiny())
	if r := c.Lookup(0x1000, 0); r.Hit {
		t.Error("cold lookup hit")
	}
	c.Insert(0x1000, 0, 0, false)
	if r := c.Lookup(0x1000, 1); !r.Hit || r.Wait != 0 {
		t.Errorf("lookup after insert = %+v", r)
	}
	if c.Stats.Accesses != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(tiny()) // 2 sets × 2 ways
	// Three lines mapping to set 0: line indices 0, 2, 4 (even → set 0).
	c.Insert(0*64, 0, 0, false)
	c.Insert(2*64, 1, 1, false)
	c.Lookup(0*64, 2) // touch line 0 → line 2 is now LRU
	c.Insert(4*64, 3, 3, false)
	if !c.Contains(0 * 64) {
		t.Error("recently-used line evicted")
	}
	if c.Contains(2 * 64) {
		t.Error("LRU line survived")
	}
}

func TestHalfPriorityInsertAgesOutFirst(t *testing.T) {
	c := New(tiny())
	// Fill set 0 with two demand lines, then insert a prefetch; it must be
	// the next victim even though it is the most recent insert.
	c.Insert(0*64, 0, 0, false)
	c.Insert(2*64, 1, 1, false)
	c.Lookup(0*64, 2)
	c.Lookup(2*64, 3)
	c.Insert(4*64, 4, 10, true) // prefetch replaces LRU (line 0)
	// Set 0 holds: {line 2 or 0?} — the victim was line 0 (oldest ts).
	// Now insert another demand line: the prefetched line (half priority)
	// must be evicted before line 2 (MRU-ish).
	c.Insert(6*64, 5, 5, false)
	if c.Contains(4 * 64) {
		t.Error("half-priority prefetched line outlived an MRU demand line")
	}
	if !c.Contains(2 * 64) {
		t.Error("demand line evicted before half-priority prefetch")
	}
}

func TestInFlightArrivalWait(t *testing.T) {
	c := New(tiny())
	c.Insert(0, 100, 160, true) // arrives at cycle 160
	r := c.Lookup(0, 130)
	if !r.Hit || r.Wait != 30 {
		t.Errorf("in-flight lookup = %+v, want hit with 30-cycle wait", r)
	}
	if c.Stats.PrefetchLate != 1 {
		t.Error("late-prefetch wait not counted")
	}
	r = c.Lookup(0, 200)
	if !r.Hit || r.Wait != 0 {
		t.Errorf("post-arrival lookup = %+v", r)
	}
}

func TestPrefetchUsefulAccounting(t *testing.T) {
	c := New(tiny())
	c.Insert(0, 0, 10, true)
	if c.Stats.PrefetchInserts != 1 {
		t.Error("prefetch insert not counted")
	}
	r := c.Lookup(0, 20)
	if !r.WasPrefetch {
		t.Error("first demand touch must report WasPrefetch")
	}
	if c.Stats.PrefetchUseful != 1 {
		t.Error("useful prefetch not counted")
	}
	r = c.Lookup(0, 21)
	if r.WasPrefetch {
		t.Error("second touch must not re-count the prefetch")
	}
}

func TestPrefetchUselessOnEviction(t *testing.T) {
	c := New(tiny())
	c.Insert(0*64, 0, 0, true) // prefetched, never used
	c.Insert(2*64, 1, 1, false)
	evicted := c.Insert(4*64, 2, 2, false) // set 0 full → victim is the prefetch
	if !evicted {
		t.Error("expected eviction of unused prefetched line to be reported")
	}
	if c.Stats.PrefetchUseless != 1 {
		t.Errorf("PrefetchUseless = %d", c.Stats.PrefetchUseless)
	}
}

func TestRedundantPrefetchInsert(t *testing.T) {
	c := New(tiny())
	c.Insert(0, 0, 0, false)
	c.Insert(0, 1, 50, true)
	if c.Stats.PrefetchRedundant != 1 {
		t.Error("redundant prefetch insert not counted")
	}
	// Resident copy must not gain a later arrival.
	if r := c.Lookup(0, 2); r.Wait != 0 {
		t.Error("redundant prefetch delayed a resident line")
	}
}

func TestInsertRefreshesEarlierArrival(t *testing.T) {
	c := New(tiny())
	c.Insert(0, 0, 100, true)
	c.Insert(0, 0, 40, false) // demand fill arriving earlier
	if r := c.Lookup(0, 50); r.Wait != 0 {
		t.Errorf("arrival not refreshed: wait=%d", r.Wait)
	}
}

func TestFlushUnusedPrefetchStats(t *testing.T) {
	c := New(tiny())
	c.Insert(0, 0, 0, true)
	c.Insert(2*64, 0, 0, true)
	c.Lookup(0, 1) // one used
	c.FlushUnusedPrefetchStats()
	if c.Stats.PrefetchUseful != 1 || c.Stats.PrefetchUseless != 1 {
		t.Errorf("flush stats = useful %d useless %d", c.Stats.PrefetchUseful, c.Stats.PrefetchUseless)
	}
}

func TestReset(t *testing.T) {
	c := New(tiny())
	c.Insert(0, 0, 0, false)
	c.Lookup(0, 1)
	c.Reset()
	if c.Contains(0) {
		t.Error("Reset left lines resident")
	}
	if c.Stats.Accesses != 0 {
		t.Error("Reset left stats")
	}
}

func TestContainsDoesNotDisturbState(t *testing.T) {
	c := New(tiny())
	c.Insert(0*64, 0, 0, false)
	c.Insert(2*64, 1, 1, false)
	before := c.Stats
	for i := 0; i < 10; i++ {
		c.Contains(0 * 64)
	}
	if c.Stats != before {
		t.Error("Contains changed statistics")
	}
	// LRU untouched: line 0 is still the victim (oldest).
	c.Insert(4*64, 2, 2, false)
	if c.Contains(0 * 64) {
		t.Error("Contains promoted a line")
	}
}

func TestLookupConsistentWithContains(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(Config{Name: "q", SizeBytes: 16 * isa.LineSize, Ways: 4, Latency: 1})
		for i, ln := range lines {
			c.Insert(isa.Addr(ln)*isa.LineSize, uint64(i), uint64(i), i%3 == 0)
		}
		for _, ln := range lines {
			addr := isa.Addr(ln) * isa.LineSize
			has := c.Contains(addr)
			hit := c.Lookup(addr, 1<<30).Hit
			if has != hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- Hierarchy ---

func TestTableIGeometry(t *testing.T) {
	h := TableI()
	if h.L1I.Sets() != 64 || h.L2.Sets() != 1024 || h.L3.Sets() != 8192 {
		t.Errorf("sets = %d %d %d", h.L1I.Sets(), h.L2.Sets(), h.L3.Sets())
	}
	if h.L1I.Latency != 3 || h.L2.Latency != 12 || h.L3.Latency != 36 || h.MemLatency != 260 {
		t.Error("Table I latencies wrong")
	}
}

func TestFetchLevels(t *testing.T) {
	h := NewHierarchy(TableI())
	r := h.FetchI(0x400000, 0)
	if !r.Miss || r.Level != LevelMem || r.Stall != 260 {
		t.Errorf("cold fetch = %+v", r)
	}
	// Now resident everywhere.
	r = h.FetchI(0x400000, 300)
	if r.Miss || r.Level != LevelL1 || r.Stall != 0 {
		t.Errorf("warm fetch = %+v", r)
	}
}

func TestFetchL2Hit(t *testing.T) {
	h := NewHierarchy(TableI())
	// Bring a line in, then evict it from L1I only by flooding L1I's set.
	h.FetchI(0x400000, 0)
	set := TableI().L1I.Sets()
	for i := 1; i <= 9; i++ { // 8 ways + 1
		h.FetchI(isa.Addr(0x400000+i*set*isa.LineSize), uint64(i*300))
	}
	r := h.FetchI(0x400000, 10000)
	if !r.Miss || r.Level != LevelL2 || r.Stall != 12 {
		t.Errorf("L2 fetch = %+v", r)
	}
}

func TestPrefetchServeLevelsAndFill(t *testing.T) {
	h := NewHierarchy(TableI())
	pr := h.PrefetchI(0x500000, 0)
	if pr.Resident || pr.Level != LevelMem || pr.ServeLatency != 260 {
		t.Errorf("cold prefetch = %+v", pr)
	}
	// A demand fetch right after waits only the remaining time.
	r := h.FetchI(0x500000, 100)
	if r.Miss {
		t.Error("prefetched line missed")
	}
	if r.Stall != 160 {
		t.Errorf("residual wait = %d, want 160", r.Stall)
	}
	if !r.UsedPrefetch {
		t.Error("prefetch use not reported")
	}
}

func TestPrefetchResident(t *testing.T) {
	h := NewHierarchy(TableI())
	h.FetchI(0x400000, 0)
	pr := h.PrefetchI(0x400000, 1)
	if !pr.Resident {
		t.Error("resident prefetch not detected")
	}
	if h.L1I().Stats.PrefetchRedundant == 0 {
		t.Error("redundant prefetch not counted")
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelMem: "Mem"}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q", l, l.String())
		}
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(TableI())
	h.FetchI(0x400000, 0)
	h.Reset()
	if r := h.FetchI(0x400000, 0); !r.Miss || r.Level != LevelMem {
		t.Error("Reset did not cold the hierarchy")
	}
}

func TestInclusiveFillPath(t *testing.T) {
	h := NewHierarchy(TableI())
	h.FetchI(0x400000, 0)
	if !h.L2().Contains(0x400000) || !h.L3().Contains(0x400000) {
		t.Error("memory fill must populate L2 and L3")
	}
}

// TestResetEpochWrapAround: when the epoch counter wraps, Reset must clear
// the set stamps. Otherwise a set last written in the epoch Reset restarts
// at would read as resident again, with whatever its arrays still hold.
func TestResetEpochWrapAround(t *testing.T) {
	c := New(tiny())                   // 2 sets × 2 ways; epoch 1
	c.Insert(0, 0, 0, false)           // set 0, stamped in epoch 1
	c.epoch = math.MaxUint32           // as if 2^32−2 Resets had passed
	c.Insert(isa.LineSize, 0, 9, true) // set 1, stamped in the last epoch
	c.Reset()
	if c.epoch != 1 {
		t.Fatalf("epoch after wrap-around = %d, want 1", c.epoch)
	}
	if c.Contains(0) || c.Contains(isa.LineSize) {
		t.Fatal("a line survived the wrapping Reset")
	}
	c.FlushUnusedPrefetchStats()
	if r := c.Lookup(0, 1); r.Hit || c.Stats != (Stats{Accesses: 1, Misses: 1}) {
		t.Fatalf("after the wrapping Reset: Lookup = %+v, stats %+v", r, c.Stats)
	}
	c.Insert(0, 2, 2, false)
	if !c.Contains(0) || c.Contains(isa.LineSize) {
		t.Fatal("cache does not fill normally after the wrapping Reset")
	}
}
