package traceio

import (
	"bytes"
	"strings"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

func TestProgramRoundTrip(t *testing.T) {
	w := workload.Preset("tomcat")
	var buf bytes.Buffer
	if err := WriteProgram(&buf, w.Prog); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(w.Prog.Blocks) || len(got.Funcs) != len(w.Prog.Funcs) {
		t.Fatal("structure size mismatch")
	}
	if got.TextSize != w.Prog.TextSize {
		t.Errorf("TextSize %d != %d", got.TextSize, w.Prog.TextSize)
	}
	for i := range got.Blocks {
		if got.Blocks[i].Addr != w.Prog.Blocks[i].Addr {
			t.Fatalf("block %d address differs after round trip", i)
		}
		if got.Blocks[i].Size() != w.Prog.Blocks[i].Size() {
			t.Fatalf("block %d size differs", i)
		}
	}
}

func TestInjectedProgramRoundTrip(t *testing.T) {
	w := workload.Preset("tomcat")
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs = 150_000
	scfg.WarmupInstrs = 40_000
	prof := profile.Collect(w, workload.DefaultInput(w), scfg)
	build := core.BuildISPY(prof, scfg, core.DefaultOptions())

	var buf bytes.Buffer
	if err := WriteProgram(&buf, build.Prog); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantPB, wantN := build.Prog.PrefetchBytes()
	gotPB, gotN := got.PrefetchBytes()
	if wantPB != gotPB || wantN != gotN {
		t.Fatalf("prefetch payload differs: (%d,%d) vs (%d,%d)", wantPB, wantN, gotPB, gotN)
	}
	// Prefetch operands survive: compare every instruction.
	for i := range got.Blocks {
		for j := range got.Blocks[i].Instrs {
			a, b := &build.Prog.Blocks[i].Instrs[j], &got.Blocks[i].Instrs[j]
			if a.Kind != b.Kind || a.CtxHash != b.CtxHash || a.BitVec != b.BitVec ||
				a.TargetAddr != b.TargetAddr || len(a.CtxAddrs) != len(b.CtxAddrs) {
				t.Fatalf("instr (%d,%d) differs after round trip", i, j)
			}
		}
	}
	// The deserialized program simulates identically.
	s1 := sim.Run(build.Prog, workload.NewExecutor(w, workload.DefaultInput(w)), scfg, nil)
	s2 := sim.Run(got, workload.NewExecutor(w, workload.DefaultInput(w)), scfg, nil)
	if s1.Cycles != s2.Cycles || s1.L1IMisses != s2.L1IMisses {
		t.Errorf("deserialized program behaves differently: %v vs %v", s1, s2)
	}
}

// TestProfileRoundTrip: a decoded profile keeps what was encoded, and
// encoding it again reproduces the original bytes, both for a collected
// profile, whose histories share one record, and for tinyProfile, whose one
// entry has an instruction distance (12) no collected window's newest entry
// has.
func TestProfileRoundTrip(t *testing.T) {
	w := workload.Preset("tomcat")
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs = 150_000
	scfg.WarmupInstrs = 40_000
	prof := profile.Collect(w, workload.DefaultInput(w), scfg)
	pd := ProfileDataOf(prof)
	roundTrip := func(in *ProfileData) *ProfileData {
		enc := AppendProfile(nil, in)
		dec, err := DecodeProfile(enc)
		if err != nil {
			t.Fatalf("%s: %v", in.WorkloadName, err)
		}
		if !bytes.Equal(AppendProfile(nil, dec), enc) {
			t.Errorf("%s: re-encoding the decoded profile changed its bytes", in.WorkloadName)
		}
		return dec
	}
	roundTrip(tinyProfile())
	got := roundTrip(pd)
	if got.WorkloadName != w.Name || got.WorkloadSeed != w.Params.Seed {
		t.Error("workload identity lost")
	}
	if got.TotalMisses != pd.TotalMisses || got.AvgHashDensity != pd.AvgHashDensity {
		t.Error("summary stats lost")
	}
	if len(got.Graph.Sites) != len(prof.Graph.Sites) {
		t.Fatalf("sites %d != %d", len(got.Graph.Sites), len(prof.Graph.Sites))
	}
	for key, s := range prof.Graph.Sites {
		g := got.Graph.Sites[key]
		if g == nil || g.Count != s.Count || len(g.Samples) != len(s.Samples) {
			t.Fatalf("site %v corrupted", key)
		}
	}
	for i := range prof.Graph.Exec {
		if got.Graph.Exec[i] != prof.Graph.Exec[i] {
			t.Fatal("exec counts corrupted")
		}
	}
}

func TestProfileRoundTripDrivesIdenticalAnalysis(t *testing.T) {
	// The real interchange property: analysis over a deserialized profile
	// must produce the same plan as over the original.
	w := workload.Preset("tomcat")
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs = 150_000
	scfg.WarmupInstrs = 40_000
	prof := profile.Collect(w, workload.DefaultInput(w), scfg)

	var buf bytes.Buffer
	pd := &ProfileData{WorkloadName: w.Name, WorkloadSeed: w.Params.Seed,
		TotalMisses: prof.Graph.TotalMisses, AvgHashDensity: prof.AvgHashDensity,
		Graph: prof.Graph}
	if err := WriteProfile(&buf, pd); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}

	opt := core.DefaultOptions()
	c1, u1 := core.SelectSites(prof.Graph, opt)
	c2, u2 := core.SelectSites(got.Graph, opt)
	if len(c1) != len(c2) || u1 != u2 {
		t.Fatalf("site selection differs: %d/%d vs %d/%d", len(c1), u1, len(c2), u2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("choice %d differs: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x01, 0x02, 0x03})
	if _, err := ReadProgram(&buf); err == nil {
		t.Error("garbage accepted as program")
	}
	buf.Reset()
	buf.Write([]byte{0x05})
	if _, err := ReadProfile(&buf); err == nil {
		t.Error("garbage accepted as profile")
	}
}

func TestTruncatedStreamRejected(t *testing.T) {
	w := workload.Preset("tomcat")
	var buf bytes.Buffer
	if err := WriteProgram(&buf, w.Prog); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/3]
	if _, err := ReadProgram(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated program accepted")
	}
}

// TestOutOfRangeBlocksRejected: a profile whose edge, site key or history
// entry names a block outside the graph fails to decode.
func TestOutOfRangeBlocksRejected(t *testing.T) {
	for name, mutate := range map[string]func(g *cfg.Graph){
		"edge": func(g *cfg.Graph) { g.Edges[0][2] = 1 },
		"site": func(g *cfg.Graph) { g.Site(cfg.LineKey{Block: -1}).Count = 1 },
		"history entry": func(g *cfg.Graph) {
			g.Sites[cfg.LineKey{Block: 1}].Samples[0].Preds[0].Block = 1 << 20
		},
	} {
		pd := tinyProfile()
		mutate(pd.Graph)
		var buf bytes.Buffer
		if err := WriteProfile(&buf, pd); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadProfile(&buf); err == nil || !strings.Contains(err.Error(), name+" names block") {
			t.Errorf("%s out of range: err = %v", name, err)
		}
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	pd := &ProfileData{WorkloadName: "x", Graph: cfg.NewGraph(0)}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, pd); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumBlocks != 0 || len(got.Graph.Sites) != 0 {
		t.Error("empty graph corrupted")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := &sim.Stats{
		Instrs: 123456, BaseInstrs: 120000, Blocks: 9876,
		Cycles: 555555, IssueCycles: 1, BackendCycles: 2, StallCycles: 3,
		FullStallCycles: 4, LineFetches: 5, L1IMisses: 6, LateWaits: 7,
		DynPrefetchInstrs: 8, PrefetchLinesIssued: 9,
		CondExecuted: 10, CondFired: 11, CondSuppressed: 12, CondFalseFires: 13,
	}
	s.L1I.Accesses, s.L1I.Misses, s.L1I.PrefetchUseful = 100, 20, 15
	s.L2.PrefetchInserts, s.L2.PrefetchRedundant = 30, 3
	s.L3.Misses, s.L3.PrefetchLate, s.L3.PrefetchUseless = 40, 4, 2
	got, err := DecodeStats(AppendStats(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestStatsBadInputRejected(t *testing.T) {
	full := AppendStats(nil, &sim.Stats{Cycles: 1})
	if _, err := DecodeStats(full[:len(full)/2]); err == nil {
		t.Error("truncated stats accepted")
	}
	if _, err := DecodeStats([]byte{0x01, 0x02, 0x03}); err == nil {
		t.Error("garbage stats accepted")
	}
}
