package artifacts

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/hashx"
	"ispy/internal/isa"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func statsKey(kind string) *Key {
	return NewKey(kind, "tomcat").
		Params(workload.PresetParams("tomcat")).
		SimConfig(sim.Default()).
		Input(workload.Input{Name: "profiled", Seed: 42})
}

func TestKeyDeterminismAndSensitivity(t *testing.T) {
	if statsKey("base").Hash() != statsKey("base").Hash() {
		t.Error("identical key material hashed differently")
	}
	base := statsKey("base")
	if h := statsKey("ideal").Hash(); h == base.Hash() {
		t.Error("kind not part of the key")
	}
	cfg := sim.Default()
	cfg.Ideal = true
	if h := NewKey("base", "tomcat").Params(workload.PresetParams("tomcat")).SimConfig(cfg).Hash(); h == base.Hash() {
		t.Error("sim config not part of the key")
	}
	o1, o2 := core.DefaultOptions(), core.DefaultOptions()
	o2.Conditional = false
	k1 := statsKey("v").Options(o1)
	k2 := statsKey("v").Options(o2)
	if k1.Hash() == k2.Hash() {
		t.Error("boolean option flip did not change the key")
	}
	// The HW-prefetch mask folds deterministically (the source map's
	// iteration order must not leak through LineMask into the hash), and a
	// nil mask keys differently from an empty one (they mean different
	// things: unrestricted window vs everything gated off).
	mk := func() *Key {
		c := sim.Default()
		c.HWPrefetchMask = sim.NewLineMask(map[isa.Addr]uint64{0x40: 3, 0x80: 7, 0xc0: 1})
		return NewKey("hw", "a").SimConfig(c)
	}
	for i := 0; i < 20; i++ {
		if mk().Hash() != mk().Hash() {
			t.Fatal("mask fold nondeterministic")
		}
	}
	nilMask := sim.Default()
	emptyMask := sim.Default()
	emptyMask.HWPrefetchMask = sim.NewLineMask(nil)
	if NewKey("hw", "a").SimConfig(nilMask).Hash() == NewKey("hw", "a").SimConfig(emptyMask).Hash() {
		t.Error("nil and empty HW-prefetch masks share a key")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	c := testCache(t)
	k := statsKey("base")
	if _, ok := c.LoadStats(context.Background(), k); ok {
		t.Fatal("empty cache reported a hit")
	}
	s := &sim.Stats{Cycles: 12345, BaseInstrs: 1000, L1IMisses: 77}
	s.L1I.Accesses = 9000
	c.StoreStats(context.Background(), k, s)
	got, ok := c.LoadStats(context.Background(), k)
	if !ok {
		t.Fatal("stored stats not found")
	}
	if *got != *s {
		t.Errorf("round trip mismatch: got %+v want %+v", got, s)
	}
	// A different kind misses.
	if _, ok := c.LoadStats(context.Background(), statsKey("ideal")); ok {
		t.Error("different key served the same entry")
	}
}

func TestProfileRoundTrip(t *testing.T) {
	c := testCache(t)
	w := workload.Preset("tomcat")
	in := workload.DefaultInput(w)
	cfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	cfg.MaxInstrs = 60_000
	cfg.WarmupInstrs = 10_000
	p := profile.Collect(w, in, cfg)

	k := NewKey("profile", w.Name).Params(w.Params).SimConfig(cfg).Input(in)
	c.StoreProfile(context.Background(), k, p)
	got, ok := c.LoadProfile(context.Background(), k, w, in)
	if !ok {
		t.Fatal("stored profile not found")
	}
	if got.Graph.TotalMisses != p.Graph.TotalMisses ||
		len(got.Graph.Sites) != len(p.Graph.Sites) ||
		got.AvgHashDensity != p.AvgHashDensity ||
		*got.Stats != *p.Stats {
		t.Error("profile round trip lost data")
	}
	if got.Workload != w || got.Input.Name != in.Name || got.Input.Seed != in.Seed {
		t.Error("profile not rebound to live workload/input")
	}

	// A profile stored for another input must be treated as stale.
	other := workload.Input{Name: "drifted", Seed: 999}
	if _, ok := c.LoadProfile(context.Background(), k, w, other); ok {
		t.Error("stale profile (different input) served as a hit")
	}
}

func TestBuildRoundTrip(t *testing.T) {
	c := testCache(t)
	w := workload.Preset("tomcat")
	in := workload.DefaultInput(w)
	cfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	cfg.MaxInstrs = 60_000
	cfg.WarmupInstrs = 10_000
	p := profile.Collect(w, in, cfg)
	b := core.BuildISPY(p, cfg, core.DefaultOptions())

	k := NewKey("ispy-build", w.Name).Params(w.Params).SimConfig(cfg).Options(core.DefaultOptions())
	c.StoreBuild(context.Background(), k, b)
	got, ok := c.LoadBuild(context.Background(), k)
	if !ok {
		t.Fatal("stored build not found")
	}
	// The plan-only read serves the summary of the plan LoadBuild does.
	if sum, ok := c.LoadPlanSummary(context.Background(), k); !ok || !reflect.DeepEqual(sum, got.Plan.Summary()) {
		t.Errorf("LoadPlanSummary = %+v (ok=%v), want the summary of LoadBuild's plan %+v", sum, ok, got.Plan.Summary())
	}
	if len(got.Prog.Blocks) != len(b.Prog.Blocks) || got.Prog.TextSize != b.Prog.TextSize {
		t.Error("program round trip mismatch")
	}
	if got.Plan.MissesTotal != b.Plan.MissesTotal ||
		got.Plan.MissesPlanned != b.Plan.MissesPlanned ||
		got.Plan.MissesUncovered != b.Plan.MissesUncovered ||
		len(got.Plan.CoalescedLineCounts) != len(b.Plan.CoalescedLineCounts) ||
		len(got.Plan.CoalesceDistances) != len(b.Plan.CoalesceDistances) {
		t.Error("plan summary round trip mismatch")
	}
	// The planned-prefetch list (what the analysis server streams back) must
	// round-trip exactly, not just in aggregate.
	if len(got.Plan.Prefetches) != len(b.Plan.Prefetches) {
		t.Fatalf("prefetch list round trip: %d entries, want %d", len(got.Plan.Prefetches), len(b.Plan.Prefetches))
	}
	if len(b.Plan.Prefetches) == 0 {
		t.Fatal("test build planned no prefetches; the round-trip assertion is vacuous")
	}
	for i, want := range b.Plan.Prefetches {
		g := got.Plan.Prefetches[i]
		if g.Site != want.Site || g.Kind != want.Kind || g.MissCount != want.MissCount ||
			len(g.Targets) != len(want.Targets) || len(g.CtxBlocks) != len(want.CtxBlocks) {
			t.Fatalf("prefetch %d round trip mismatch: got %+v, want %+v", i, g, want)
		}
		for j := range want.Targets {
			if g.Targets[j] != want.Targets[j] {
				t.Fatalf("prefetch %d target %d: got %v, want %v", i, j, g.Targets[j], want.Targets[j])
			}
		}
		for j := range want.CtxBlocks {
			if g.CtxBlocks[j] != want.CtxBlocks[j] {
				t.Fatalf("prefetch %d ctx block %d: got %d, want %d", i, j, g.CtxBlocks[j], want.CtxBlocks[j])
			}
		}
	}
	// The rewritten program must simulate identically to the original build.
	s1 := sim.Run(b.Prog, workload.NewExecutor(w, in), cfg, nil)
	s2 := sim.Run(got.Prog, workload.NewExecutor(w, in), cfg, nil)
	if s1.Cycles != s2.Cycles || s1.L1IMisses != s2.L1IMisses {
		t.Errorf("cached build simulates differently: %d/%d vs %d/%d cycles/misses",
			s1.Cycles, s1.L1IMisses, s2.Cycles, s2.L1IMisses)
	}
}

// TestCorruptEntriesFallBackToMiss exercises the recovery path: truncated,
// bit-flipped, and garbage entries must all read as misses, never errors, and
// a damaged build entry is a miss and an eviction on the plan-only read too.
// A program section of a stale traceio version, under a valid container,
// misses on both build reads.
func TestCorruptEntriesFallBackToMiss(t *testing.T) {
	ctx := context.Background()
	c := testCache(t)
	k := statsKey("base")
	c.StoreStats(ctx, k, &sim.Stats{Cycles: 999, BaseInstrs: 10})
	path, orig := entryFile(t, c, k)
	for name, data := range corruptions(orig) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.LoadStats(ctx, k); ok {
			t.Errorf("%s entry served as a hit", name)
		}
	}

	// After corruption, a store must repair the entry.
	c.StoreStats(ctx, k, &sim.Stats{Cycles: 999, BaseInstrs: 10})
	if got, ok := c.LoadStats(ctx, k); !ok || got.Cycles != 999 {
		t.Error("store after corruption did not repair the entry")
	}

	bk := statsKey("ispy-build")
	b := &core.Build{Prog: workload.Preset("tomcat").Prog, Plan: &core.Plan{MissesTotal: 9, CoalescedLineCounts: []int{2}}}
	c.StoreBuild(ctx, bk, b)
	bpath, borig := entryFile(t, c, bk)
	for name, data := range corruptions(borig) {
		if err := os.WriteFile(bpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.LoadPlanSummary(ctx, bk); ok {
			t.Errorf("%s build entry served a plan summary", name)
		}
		if _, err := os.Stat(bpath); !os.IsNotExist(err) {
			t.Errorf("%s build entry not evicted by LoadPlanSummary (stat err=%v)", name, err)
		}
	}

	var prog bytes.Buffer
	if err := traceio.WriteProgram(&prog, b.Prog); err != nil {
		t.Fatal(err)
	}
	plan := traceio.AppendPlan(nil, b.Plan)
	stale := append([]byte(nil), prog.Bytes()...)
	stale[5]++ // the traceio version is a one-byte varint after the 5-byte program magic
	c.writeEntry(ctx, bk, raw(stale), raw(plan))
	if c.readEntry(ctx, bk) == nil {
		t.Fatal("the container rejected the stale-version entry; the case tests nothing")
	}
	if _, ok := c.LoadBuild(ctx, bk); ok {
		t.Error("LoadBuild served a program of a stale traceio version")
	}
	if _, ok := c.LoadPlanSummary(ctx, bk); ok {
		t.Error("LoadPlanSummary served the plan of a build whose program has a stale traceio version")
	}

	// Version-1 entries, closed by FNV-1a, are what a cache written before
	// XXH64 holds. Intact, every Load* hits them and returns what was
	// stored; damaged, each misses and is evicted.
	for _, e := range v1Entries(t) {
		path := filepath.Join(c.Dir(), e.key.Filename())
		intact := v1Entry(e.key, e.sections...)
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
		if !e.hit(ctx, c) {
			t.Errorf("intact version-1 %s entry missed or served other data", e.key.Kind())
		}
		for name, data := range corruptions(intact) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if e.hit(ctx, c) {
				t.Errorf("%s version-1 %s entry served as a hit", name, e.key.Kind())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s version-1 %s entry not evicted (stat err=%v)", name, e.key.Kind(), err)
			}
		}
	}
}

// raw returns a section that appends b as it is.
func raw(b []byte) section {
	return func(dst []byte) []byte { return append(dst, b...) }
}

// v1Entry lays out sections under k as container version 1 did: the layout
// of version 2, closed by FNV-1a over the same bytes instead of XXH64.
func v1Entry(k *Key, sections ...[]byte) []byte {
	buf := binary.AppendUvarint(nil, entryMagic)
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(k.buf)))
	buf = append(buf, k.buf...)
	buf = binary.AppendUvarint(buf, uint64(len(sections)))
	for _, s := range sections {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return binary.AppendUvarint(buf, hashx.FNV1a64(buf))
}

// v1Case is one kind of entry as a version-1 cache holds it: its key, its
// sections, and a load through the typed reader that reports a hit
// returning exactly what the sections hold.
type v1Case struct {
	key      *Key
	sections [][]byte
	hit      func(ctx context.Context, c *Cache) bool
}

// v1Entries returns one case per typed reader: LoadStats, LoadUint,
// LoadProfile, LoadScenario, LoadBuild and LoadPlanSummary.
func v1Entries(t *testing.T) []v1Case {
	t.Helper()
	w := workload.Preset("tomcat")
	in := workload.DefaultInput(w)
	st := &sim.Stats{Cycles: 4321, BaseInstrs: 1234, L1IMisses: 56}
	g := cfg.NewGraph(2)
	g.Exec[0], g.Exec[1] = 5, 3
	g.Edges[0] = map[int32]uint64{1: 3}
	g.Site(cfg.LineKey{Block: 1}).Count = 2
	g.TotalMisses = 2
	pd := &traceio.ProfileData{
		WorkloadName: w.Name, WorkloadSeed: w.Params.Seed, InputName: in.Name, InputSeed: in.Seed,
		TotalMisses: 2, AvgHashDensity: 0.25, Graph: g,
	}
	rows := []traceio.ScenarioRow{{Name: "a", App: "tomcat", SLO: "batch", Weight: 1, Requests: 3, Blocks: 9, Instrs: 90, Misses: 4}}
	b := &core.Build{Prog: w.Prog, Plan: &core.Plan{
		MissesTotal: 9, MissesPlanned: 7, CoalescedLineCounts: []int{2}, CoalesceDistances: []int{1},
		Prefetches: []core.PlannedPrefetch{{Site: 5, Kind: isa.KindCLprefetch, MissCount: 7,
			Targets: []cfg.LineKey{{Block: 9}, {Block: 9, Delta: 2}}, CtxBlocks: []int32{1, 4}}},
	}}
	prog := traceio.AppendProgram(nil, b.Prog)
	plan := traceio.AppendPlan(nil, b.Plan)
	sameProg := func(p *isa.Program) bool { return bytes.Equal(traceio.AppendProgram(nil, p), prog) }
	return []v1Case{
		{statsKey("v1-stats"), [][]byte{traceio.AppendStats(nil, st)}, func(ctx context.Context, c *Cache) bool {
			got, ok := c.LoadStats(ctx, statsKey("v1-stats"))
			return ok && *got == *st
		}},
		{statsKey("v1-uint"), [][]byte{binary.AppendUvarint(nil, 1<<40)}, func(ctx context.Context, c *Cache) bool {
			got, ok := c.LoadUint(ctx, statsKey("v1-uint"))
			return ok && got == 1<<40
		}},
		{statsKey("v1-profile"), [][]byte{traceio.AppendProfile(nil, pd), traceio.AppendStats(nil, st)}, func(ctx context.Context, c *Cache) bool {
			got, ok := c.LoadProfile(ctx, statsKey("v1-profile"), w, in)
			return ok && *got.Stats == *st && got.AvgHashDensity == pd.AvgHashDensity && reflect.DeepEqual(got.Graph, g)
		}},
		{statsKey("v1-scenario"), [][]byte{traceio.AppendStats(nil, st), traceio.AppendScenarioRows(nil, rows)}, func(ctx context.Context, c *Cache) bool {
			got, ok := c.LoadScenario(ctx, statsKey("v1-scenario"))
			return ok && *got.St == *st && reflect.DeepEqual(got.Rows, rows)
		}},
		{statsKey("v1-build"), [][]byte{prog, plan}, func(ctx context.Context, c *Cache) bool {
			got, ok := c.LoadBuild(ctx, statsKey("v1-build"))
			return ok && sameProg(got.Prog) && reflect.DeepEqual(got.Plan, b.Plan)
		}},
		{statsKey("v1-plan"), [][]byte{prog, plan}, func(ctx context.Context, c *Cache) bool {
			got, ok := c.LoadPlanSummary(ctx, statsKey("v1-plan"))
			return ok && reflect.DeepEqual(got, b.Plan.Summary())
		}},
	}
}

// entryFile returns the on-disk path and bytes of k's entry.
func entryFile(t *testing.T, c *Cache, k *Key) (string, []byte) {
	t.Helper()
	path := filepath.Join(c.Dir(), k.Filename())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// corruptions returns damaged variants of a valid entry, by name.
func corruptions(orig []byte) map[string][]byte {
	return map[string][]byte{
		"truncated":  orig[:len(orig)/2],
		"empty":      {},
		"garbage":    {0xde, 0xad, 0xbe, 0xef},
		"bitflipped": flipByte(orig, len(orig)/2),
		"badmagic":   flipByte(orig, 0),
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

func TestNilCacheIsBypass(t *testing.T) {
	var c *Cache
	k := statsKey("base")
	c.StoreStats(context.Background(), k, &sim.Stats{Cycles: 1})
	if _, ok := c.LoadStats(context.Background(), k); ok {
		t.Error("nil cache hit")
	}
	if _, ok := c.LoadBuild(context.Background(), k); ok {
		t.Error("nil cache hit")
	}
	if _, ok := c.LoadPlanSummary(context.Background(), k); ok {
		t.Error("nil cache hit")
	}
	if c.Enabled() || c.Dir() != "" {
		t.Error("nil cache claims to be enabled")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
}
