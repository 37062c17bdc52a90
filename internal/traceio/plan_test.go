package traceio

import (
	"bytes"
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

// TestPlanBytesPinned: WritePlan emits exactly the pinned bytes, ReadPlan
// inverts them, and a trailing byte is rejected.
func TestPlanBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlan(&buf, tinyPlan()); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != tinyPlanHex {
		t.Fatalf("plan encoding drifted:\n got %s\nwant %s", got, tinyPlanHex)
	}
	got, err := ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil || !reflect.DeepEqual(got, tinyPlan()) {
		t.Fatalf("round trip: got %+v, err %v; want %+v", got, err, tinyPlan())
	}
	if _, err := ReadPlan(bytes.NewReader(append(buf.Bytes(), 0))); err == nil {
		t.Fatal("plan followed by a trailing byte decoded without error")
	}
}

// TestProfileRebind: a flattened profile rebinds to the preset it names; an
// unknown preset or a moved seed is an error, never a panic.
func TestProfileRebind(t *testing.T) {
	pd := tinyProfile()
	pd.WorkloadName = "tomcat"
	pd.WorkloadSeed = workload.PresetParams("tomcat").Seed
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
