package core

// A map-based implementation of site selection, kept as a differential
// oracle: SelectSites must return bit-identical choices on every profile
// (TestSelectSitesMatchesReference). Like context_ref_test.go, it must not
// be optimized.

import (
	"math"
	"sort"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/workload"
)

// refCandidate accumulates votes for one potential site during selection.
type refCandidate struct {
	block   int32
	votes   int
	sumDist float64
}

// selectSitesRef is the map-based reference for SelectSites.
func selectSitesRef(g *cfg.Graph, opt Options) (chosen []SiteChoice, uncovered uint64) {
	opt = opt.withDefaults()
	for _, ms := range g.SortedSites() {
		if ms.Count < opt.MinMissCount || len(ms.Samples) == 0 {
			uncovered += ms.Count
			continue
		}
		sc, ok := selectSiteRef(g, ms, opt)
		if !ok {
			uncovered += ms.Count
			continue
		}
		chosen = append(chosen, sc)
	}
	return chosen, uncovered
}

// selectSiteRef votes over the miss's history samples for predecessors
// inside the [MinDist, MaxDist] cycle window and picks the most reliable one.
func selectSiteRef(g *cfg.Graph, ms *cfg.MissSite, opt Options) (SiteChoice, bool) {
	votes := make(map[int32]*refCandidate)
	for _, s := range ms.Samples {
		// A block may appear several times in one history (loops); vote it
		// once per sample, at its earliest in-window occurrence.
		seen := make(map[int32]bool, len(s.Preds))
		for _, pe := range s.Preds {
			d := uint64(s.CycleDelta(pe))
			if opt.IPCDistance && opt.AvgCPI > 0 {
				// AsmDB's heuristic: cycles ≈ instructions × mean CPI.
				d = uint64(float64(s.InstrDelta(pe)) * opt.AvgCPI)
			}
			if d < opt.MinDistCycles || d > opt.MaxDistCycles || seen[pe.Block] {
				continue
			}
			seen[pe.Block] = true
			c := votes[pe.Block]
			if c == nil {
				c = &refCandidate{block: pe.Block}
				votes[pe.Block] = c
			}
			c.votes++
			c.sumDist += float64(d)
		}
	}
	if len(votes) == 0 {
		return SiteChoice{}, false
	}
	// Candidate filtering: enough coverage to be a reliable predecessor,
	// and fan-out at or below the selection threshold (1.0 for I-SPY —
	// conditions restore accuracy; AsmDB sweeps it, Fig. 3).
	cands := make([]*refCandidate, 0, len(votes))
	fan := make(map[int32]float64, len(votes))
	maxVotes := 0
	for _, c := range votes {
		cov := float64(c.votes) / float64(len(ms.Samples))
		if cov < opt.MinSiteCoverage {
			continue
		}
		f := fanout(g, c.block, ms.Count, cov)
		if f > opt.FanoutThreshold {
			continue
		}
		fan[c.block] = f
		cands = append(cands, c)
		if c.votes > maxVotes {
			maxVotes = c.votes
		}
	}
	if len(cands) == 0 {
		return SiteChoice{}, false
	}
	// Selection: maximize coverage first (the prefetch must actually
	// precede the miss); within the top coverage tier, prefer the most
	// *specific* predecessor (lowest fan-out), which keeps prefetches out
	// of hot shared code whenever an equally-reliable path-local
	// predecessor exists. Remaining ties: larger distance (more headroom),
	// then lower block ID (determinism).
	tier := int(float64(maxVotes) * opt.SiteCoverageTier)
	sort.Slice(cands, func(i, j int) bool {
		ti, tj := cands[i].votes >= tier, cands[j].votes >= tier
		if ti != tj {
			return ti
		}
		if ti && tj {
			fi, fj := fan[cands[i].block], fan[cands[j].block]
			if fi != fj {
				return fi < fj
			}
		}
		if cands[i].votes != cands[j].votes {
			return cands[i].votes > cands[j].votes
		}
		di := cands[i].sumDist / float64(cands[i].votes)
		dj := cands[j].sumDist / float64(cands[j].votes)
		if di != dj {
			return di > dj
		}
		return cands[i].block < cands[j].block
	})
	best := cands[0]
	coverage := float64(best.votes) / float64(len(ms.Samples))
	return SiteChoice{
		Target:        ms.Key,
		MissCount:     ms.Count,
		Site:          best.block,
		Coverage:      coverage,
		AvgDistCycles: best.sumDist / float64(best.votes),
		Fanout:        fan[best.block],
	}, true
}

// sameChoice reports whether two site choices are bit-identical.
func sameChoice(a, b SiteChoice) bool {
	return a.Target == b.Target && a.MissCount == b.MissCount && a.Site == b.Site &&
		math.Float64bits(a.Coverage) == math.Float64bits(b.Coverage) &&
		math.Float64bits(a.AvgDistCycles) == math.Float64bits(b.AvgDistCycles) &&
		math.Float64bits(a.Fanout) == math.Float64bits(b.Fanout)
}

// TestSelectSitesMatchesReference runs SelectSites and the reference over
// every preset's profile at prepareQuick's budget, under I-SPY's options,
// AsmDB's (instruction distances scaled by the profile's CPI) and the ends
// of Fig. 3's fan-out sweep.
func TestSelectSitesMatchesReference(t *testing.T) {
	asmdb := func(th float64) func(*Options, float64) {
		return func(o *Options, cpi float64) {
			o.Conditional, o.Coalesce = false, false
			o.FanoutThreshold, o.IPCDistance, o.AvgCPI = th, true, cpi
		}
	}
	variants := []struct {
		name string
		opt  func(*Options, float64)
	}{
		{"defaults", func(*Options, float64) {}},
		{"asmdb", asmdb(0.99)},
		{"asmdb-th=0.25", asmdb(0.25)},
		{"asmdb-th=0.999", asmdb(0.999)},
	}
	for _, app := range workload.AppNames {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			p := profileQuick(app)
			cpi := float64(p.Stats.Cycles) / float64(p.Stats.BaseInstrs)
			for _, v := range variants {
				opt := DefaultOptions()
				v.opt(&opt, cpi)
				got, gotUnc := SelectSites(p.Graph, opt)
				want, wantUnc := selectSitesRef(p.Graph, opt)
				if gotUnc != wantUnc || len(got) != len(want) {
					t.Fatalf("%s: %d choices, %d uncovered; want %d, %d", v.name, len(got), gotUnc, len(want), wantUnc)
				}
				for i := range want {
					if !sameChoice(got[i], want[i]) {
						t.Fatalf("%s: choice %d = %+v, want %+v", v.name, i, got[i], want[i])
					}
				}
				if len(want) == 0 {
					t.Errorf("%s: no site chosen", v.name)
				}
			}
		})
	}
}
