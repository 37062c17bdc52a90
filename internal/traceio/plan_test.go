package traceio

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/workload"
)

// tinyPlan builds a small plan exercising every field: multi-byte varints,
// a negative line delta, a coalesced conditional prefetch and a plain one.
func tinyPlan() *core.Plan {
	return &core.Plan{
		MissesTotal: 300, MissesPlanned: 200, MissesUncovered: 100,
		DroppedCoalesceTargets: 1,
		CoalescedLineCounts:    []int{2, 3},
		CoalesceDistances:      []int{1, 2, 130},
		Prefetches: []core.PlannedPrefetch{
			{Site: 5, Kind: isa.KindCLprefetch, MissCount: 150,
				Targets:   []cfg.LineKey{{Block: 9, Delta: 0}, {Block: 9, Delta: 2}},
				CtxBlocks: []int32{1, 4}},
			{Site: 200, Kind: isa.KindPrefetch, MissCount: 50,
				Targets: []cfg.LineKey{{Block: 2, Delta: -1}}},
		},
	}
}

// tinyPlanHex is tinyPlan's encoding as the artifact cache has always
// written its plan section. Cache entries written before the codec moved
// into this package must keep decoding, so these bytes may never change.
const tinyPlanHex = "ac02c80164010202030301028201020a0b960102120012040202089003083201040100"

// TestPlanBytesPinned: AppendPlan emits exactly the pinned bytes,
// DecodePlan inverts them, DecodePlanSummary reads their summary, and both
// reject a trailing byte.
func TestPlanBytesPinned(t *testing.T) {
	enc := AppendPlan(nil, tinyPlan())
	if got := hex.EncodeToString(enc); got != tinyPlanHex {
		t.Fatalf("plan encoding drifted:\n got %s\nwant %s", got, tinyPlanHex)
	}
	got, err := DecodePlan(enc)
	if err != nil || !reflect.DeepEqual(got, tinyPlan()) {
		t.Fatalf("round trip: got %+v, err %v; want %+v", got, err, tinyPlan())
	}
	want := core.PlanSummary{
		MissesTotal: 300, MissesPlanned: 200, MissesUncovered: 100,
		CoalescedLineCounts: []int{2, 3}, CoalesceDistances: []int{1, 2, 130},
		Prefetches: 2, Conditional: 1, Coalesced: 1, Kinds: [4]int{1, 0, 0, 1},
	}
	if sum, err := DecodePlanSummary(enc); err != nil || !reflect.DeepEqual(sum, want) {
		t.Fatalf("summary: got %+v, err %v; want %+v", sum, err, want)
	}
	if _, err := DecodePlan(append(enc, 0)); err == nil {
		t.Fatal("plan followed by a trailing byte decoded without error")
	}
	if _, err := DecodePlanSummary(append(enc, 0)); err == nil {
		t.Fatal("plan followed by a trailing byte summarized without error")
	}
}

// TestProfileRebind: a flattened profile rebinds to the preset it names; an
// unknown preset, a moved seed or a graph over another block count is an
// error, never a panic.
func TestProfileRebind(t *testing.T) {
	pd := tinyProfile()
	tiny := pd.Graph
	pd.WorkloadName = "tomcat"
	pd.WorkloadSeed = workload.PresetParams("tomcat").Seed
	if _, err := pd.Rebind(); err == nil || !strings.Contains(err.Error(), "program has") {
		t.Fatalf("graph over 2 blocks: err = %v", err)
	}
	g := cfg.NewGraph(len(workload.Preset("tomcat").Prog.Blocks))
	copy(g.Exec, tiny.Exec)
	copy(g.Cycles, tiny.Cycles)
	copy(g.Edges, tiny.Edges)
	g.Sites, g.TotalMisses = tiny.Sites, tiny.TotalMisses
	pd.Graph = g
	prof, err := pd.Rebind()
	if err != nil {
		t.Fatal(err)
	}
	if prof.Workload.Name != "tomcat" || prof.Input.Name != pd.InputName || prof.Graph != pd.Graph {
		t.Fatalf("rebound profile lost its identity: %+v", prof)
	}
	if back := ProfileDataOf(prof); !reflect.DeepEqual(back, pd) {
		t.Fatalf("flatten after rebind = %+v, want %+v", back, pd)
	}

	pd.WorkloadSeed++
	if _, err := pd.Rebind(); err == nil || !strings.Contains(err.Error(), "preset now uses") {
		t.Fatalf("stale seed: err = %v", err)
	}
	pd.WorkloadName = "bogus"
	if _, err := pd.Rebind(); err == nil || !strings.Contains(err.Error(), "unknown app preset") {
		t.Fatalf("unknown preset: err = %v", err)
	}
}

// TestDecodePlanAllocations: decoding a plan allocates a fixed number of
// times however many prefetches it holds, because every prefetch's targets
// and context blocks are windows into one array each. A window's capacity
// ends where it does, so an append to one cannot overwrite the next.
func TestDecodePlanAllocations(t *testing.T) {
	p := tinyPlan()
	for i := 0; i < 1000; i++ {
		p.Prefetches = append(p.Prefetches, p.Prefetches[i%2])
	}
	enc := AppendPlan(nil, p)
	got, err := DecodePlan(enc)
	if err != nil || !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip of %d prefetches: err %v, equal %v", len(p.Prefetches), err, err == nil && reflect.DeepEqual(got, p))
	}
	for i, pf := range got.Prefetches {
		if cap(pf.Targets) != len(pf.Targets) || cap(pf.CtxBlocks) != len(pf.CtxBlocks) {
			t.Fatalf("prefetch %d: windows of cap %d and %d hold %d and %d", i,
				cap(pf.Targets), cap(pf.CtxBlocks), len(pf.Targets), len(pf.CtxBlocks))
		}
	}
	if n := testing.AllocsPerRun(20, func() { DecodePlan(enc) }); n > 6 {
		t.Errorf("decoding %d prefetches allocated %.0f times, want at most 6", len(p.Prefetches), n)
	}
}

// TestDecodePlanSummaryAllocations: reading a plan's summary allocates the
// two histograms and nothing per prefetch.
func TestDecodePlanSummaryAllocations(t *testing.T) {
	p := tinyPlan()
	for i := 0; i < 1000; i++ {
		p.Prefetches = append(p.Prefetches, p.Prefetches[i%2])
	}
	enc := AppendPlan(nil, p)
	if sum, err := DecodePlanSummary(enc); err != nil || !reflect.DeepEqual(sum, p.Summary()) {
		t.Fatalf("summary of %d prefetches: got %+v, err %v; want %+v", len(p.Prefetches), sum, err, p.Summary())
	}
	if n := testing.AllocsPerRun(20, func() { DecodePlanSummary(enc) }); n != 2 {
		t.Errorf("summarizing %d prefetches allocated %.0f times, want 2", len(p.Prefetches), n)
	}
}
