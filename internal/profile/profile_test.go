package profile

import (
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

func testCfg() sim.Config {
	c := sim.Default()
	c.MaxInstrs = 200_000
	c.WarmupInstrs = 50_000
	return c
}

func collectTomcat(t *testing.T) *Profile {
	t.Helper()
	w := workload.Preset("tomcat")
	return Collect(w, workload.DefaultInput(w), testCfg().WithWorkloadCPI(w.Params.BackendCPI))
}

func TestCollectBasics(t *testing.T) {
	p := collectTomcat(t)
	if p.Stats.L1IMisses == 0 {
		t.Fatal("profile observed no misses")
	}
	if p.Graph.TotalMisses != p.Stats.L1IMisses {
		t.Errorf("graph misses %d != sim misses %d", p.Graph.TotalMisses, p.Stats.L1IMisses)
	}
	if len(p.Graph.Sites) == 0 {
		t.Fatal("no miss sites")
	}
	var siteSum uint64
	for _, s := range p.Graph.Sites {
		siteSum += s.Count
	}
	if siteSum != p.Graph.TotalMisses {
		t.Errorf("site counts sum %d != total %d", siteSum, p.Graph.TotalMisses)
	}
}

// TestCollectExecCounts checks execution and edge accounting: every
// simulated block is counted once, and every block but the first is one
// transition out of its predecessor.
func TestCollectExecCounts(t *testing.T) {
	p := collectTomcat(t)
	var execSum, edgeSum uint64
	for from, e := range p.Graph.Exec {
		execSum += e
		var out uint64
		for _, n := range p.Graph.Edges[from] {
			out += n
		}
		if out != e && out+1 != e {
			t.Errorf("block %d: %d transitions out of %d executions", from, out, e)
		}
		edgeSum += out
	}
	if execSum != p.Stats.Blocks {
		t.Errorf("exec sum %d != simulated blocks %d", execSum, p.Stats.Blocks)
	}
	if edgeSum+1 != execSum {
		t.Errorf("edge sum %d, want one less than %d executions", edgeSum, execSum)
	}
}

// TestCollectSampleBound: no reservoir holds or keeps room for more than
// MaxSamplesPerSite samples. Tomcat at testCfg's budget misses at most 5
// times per site; wordpress at 2M instructions fills hundreds of
// reservoirs, which then sample.
func TestCollectSampleBound(t *testing.T) {
	w := workload.Preset("wordpress")
	c := testCfg().WithWorkloadCPI(w.Params.BackendCPI)
	c.MaxInstrs = 2_000_000
	full := 0
	for _, p := range []*Profile{collectTomcat(t), Collect(w, workload.DefaultInput(w), c)} {
		for key, s := range p.Graph.Sites {
			if len(s.Samples) > MaxSamplesPerSite || cap(s.Samples) > MaxSamplesPerSite {
				t.Fatalf("site %v holds %d samples in %d slots (cap %d)", key, len(s.Samples), cap(s.Samples), MaxSamplesPerSite)
			}
			if s.Count > 0 && len(s.Samples) == 0 {
				t.Fatalf("site %v has misses but no samples", key)
			}
			if s.Count > MaxSamplesPerSite {
				full++
			}
		}
	}
	if full == 0 {
		t.Fatal("no site missed more often than its reservoir holds; the bound is untested")
	}
}

func TestCollectSampleDistancesMonotone(t *testing.T) {
	p := collectTomcat(t)
	checked := 0
	for _, s := range p.Graph.Sites {
		for _, sample := range s.Samples {
			// Preds are oldest-first: cycle deltas must be non-increasing.
			for i := 1; i < len(sample.Preds); i++ {
				if sample.CycleDelta(sample.Preds[i]) > sample.CycleDelta(sample.Preds[i-1]) {
					t.Fatal("history cycle deltas are not oldest-first")
				}
			}
			checked++
		}
		if checked > 200 {
			return
		}
	}
}

func TestCollectHashDensity(t *testing.T) {
	p := collectTomcat(t)
	if p.AvgHashDensity <= 0 || p.AvgHashDensity > 1 {
		t.Errorf("hash density = %v", p.AvgHashDensity)
	}
}

func TestCollectDeterminism(t *testing.T) {
	a := collectTomcat(t)
	b := collectTomcat(t)
	if a.Graph.TotalMisses != b.Graph.TotalMisses || len(a.Graph.Sites) != len(b.Graph.Sites) {
		t.Error("profiling not deterministic")
	}
}

func TestResolveLine(t *testing.T) {
	w := workload.Preset("tomcat")
	b := &w.Prog.Blocks[10]
	key := cfg.LineKey{Block: 10, Delta: int32(uint64(b.Addr) % 64)}
	// delta chosen so base+delta is within the block.
	got := ResolveLine(w.Prog, cfg.LineKey{Block: 10, Delta: 0})
	if got != b.Addr&^63 {
		t.Errorf("ResolveLine = %#x, want %#x", got, b.Addr&^63)
	}
	_ = key
}

func TestCollectContextsLabels(t *testing.T) {
	w := workload.Preset("tomcat")
	scfg := testCfg().WithWorkloadCPI(w.Params.BackendCPI)
	p := Collect(w, workload.DefaultInput(w), scfg)

	// Instrument the most-missed site's most frequent predecessor, with the
	// three most-missed lines as its targets.
	sites := p.Graph.SortedSites()
	if len(sites) < 3 {
		t.Skip("too few miss sites")
	}
	target := sites[0]
	if len(target.Samples) == 0 {
		t.Skip("no samples")
	}
	siteBlock := target.Samples[0].Preds[len(target.Samples[0].Preds)/2].Block
	lines := []cfg.LineKey{sites[0].Key, sites[1].Key, sites[2].Key}
	cp := CollectContexts(w, workload.DefaultInput(w), scfg,
		[]Targets{{Site: siteBlock, Lines: lines}}, 260)

	// Every execution of the site labels each of its targets once, so all
	// targets agree on the execution count.
	var execs uint64
	for j, ln := range lines {
		ls := cp.Get(siteBlock, ln)
		if ls == nil {
			t.Fatalf("target %d: no labeled set produced", j)
		}
		if j == 0 {
			execs = ls.PosTotal + ls.NegTotal
		} else if ls.PosTotal+ls.NegTotal != execs {
			t.Errorf("target %d: labels %d != target 0's %d", j, ls.PosTotal+ls.NegTotal, execs)
		}
		if len(ls.Pos) > MaxLabeledSamples || len(ls.Neg) > MaxLabeledSamples {
			t.Errorf("target %d: labeled reservoirs exceed cap", j)
		}
		if uint64(len(ls.Pos)) > ls.PosTotal || uint64(len(ls.Neg)) > ls.NegTotal {
			t.Errorf("target %d: reservoirs larger than totals", j)
		}
	}
	if execs == 0 {
		t.Fatal("no labels recorded")
	}
}

func TestCollectContextsUnknownSite(t *testing.T) {
	w := workload.Preset("tomcat")
	scfg := testCfg().WithWorkloadCPI(w.Params.BackendCPI)
	cp := CollectContexts(w, workload.DefaultInput(w), scfg, nil, 260)
	if len(cp.Sets) != 0 {
		t.Error("no instrumentation requested but sets exist")
	}
	if cp.Get(1, cfg.LineKey{}) != nil {
		t.Error("Get on missing pair must return nil")
	}
}
