// Injection-site selection: for each frequently-missing line, choose the
// predecessor basic block to host its prefetch (§II-B/C, §IV). The
// algorithm mirrors AsmDB's (the paper states I-SPY's is "similar to prior
// work" with O(n log n) worst case) but measures distances directly in
// cycles using the LBR's cycle annotations rather than an application-wide
// IPC estimate.
package core

import (
	"sort"

	"ispy/internal/cfg"
)

// SiteChoice is a chosen injection site for one miss line.
type SiteChoice struct {
	// Target is the miss line.
	Target cfg.LineKey
	// MissCount is the target's observed miss count.
	MissCount uint64
	// Site is the chosen predecessor block.
	Site int32
	// Coverage is the fraction of miss samples in which Site appeared
	// within the prefetch window (how reliably the site precedes the miss).
	Coverage float64
	// AvgDistCycles is the mean cycle distance from the site to the miss.
	AvgDistCycles float64
	// Fanout is 1 − P(this miss | site executes): the fraction of the
	// site's executions that do not lead to this miss (§II-C).
	Fanout float64
}

// candidate accumulates votes for one potential site during selection.
type candidate struct {
	block   int32
	votes   int
	sumDist float64
	fanout  float64
}

// voteTable is SelectSites' scratch, indexed by block ID and reused across
// the miss sites of one call: slot[b] is 1 + b's index in cands (0 when b
// has no vote yet), and voted[b] is the last sample that voted b.
type voteTable struct {
	slot, voted []int32
	sample      int32
	cands       []candidate
}

// SelectSites chooses one injection site per qualifying miss line. Lines
// with no predecessor inside the window, or with too little sample support,
// are returned in uncovered (with their miss counts) — they stay unprefetched.
func SelectSites(g *cfg.Graph, opt Options) (chosen []SiteChoice, uncovered uint64) {
	opt = opt.withDefaults()
	vt := &voteTable{slot: make([]int32, g.NumBlocks), voted: make([]int32, g.NumBlocks)}
	for _, ms := range g.SortedSites() {
		if ms.Count < opt.MinMissCount || len(ms.Samples) == 0 {
			uncovered += ms.Count
			continue
		}
		sc, ok := vt.selectSite(g, ms, opt)
		if !ok {
			uncovered += ms.Count
			continue
		}
		chosen = append(chosen, sc)
	}
	return chosen, uncovered
}

// selectSite votes over the miss's history samples for predecessors inside
// the [MinDist, MaxDist] cycle window and picks the most reliable one.
func (vt *voteTable) selectSite(g *cfg.Graph, ms *cfg.MissSite, opt Options) (SiteChoice, bool) {
	vt.cands = vt.cands[:0]
	for _, s := range ms.Samples {
		// A block may appear several times in one history (loops); vote it
		// once per sample, at its earliest in-window occurrence.
		vt.sample++
		for _, pe := range s.Preds {
			d := uint64(s.CycleDelta(pe))
			if opt.IPCDistance && opt.AvgCPI > 0 {
				// AsmDB's heuristic: cycles ≈ instructions × mean CPI.
				d = uint64(float64(s.InstrDelta(pe)) * opt.AvgCPI)
			}
			if d < opt.MinDistCycles || d > opt.MaxDistCycles || vt.voted[pe.Block] == vt.sample {
				continue
			}
			vt.voted[pe.Block] = vt.sample
			if vt.slot[pe.Block] == 0 {
				vt.cands = append(vt.cands, candidate{block: pe.Block})
				vt.slot[pe.Block] = int32(len(vt.cands))
			}
			c := &vt.cands[vt.slot[pe.Block]-1]
			c.votes++
			c.sumDist += float64(d)
		}
	}
	for _, c := range vt.cands {
		vt.slot[c.block] = 0
	}
	// Candidate filtering: enough coverage to be a reliable predecessor,
	// and fan-out at or below the selection threshold (1.0 for I-SPY —
	// conditions restore accuracy; AsmDB sweeps it, Fig. 3).
	cands := vt.cands[:0]
	maxVotes := 0
	for _, c := range vt.cands {
		cov := float64(c.votes) / float64(len(ms.Samples))
		if cov < opt.MinSiteCoverage {
			continue
		}
		c.fanout = fanout(g, c.block, ms.Count, cov)
		if c.fanout > opt.FanoutThreshold {
			continue
		}
		cands = append(cands, c)
		maxVotes = max(maxVotes, c.votes)
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
			fi, fj := cands[i].fanout, cands[j].fanout
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
		Fanout:        best.fanout,
	}, true
}

// fanout estimates the fraction of the site's executions that do NOT lead
// to the miss: 1 − (misses the site precedes) / (site executions).
func fanout(g *cfg.Graph, site int32, missCount uint64, coverage float64) float64 {
	exec := g.Exec[site]
	if exec == 0 {
		return 1
	}
	leads := coverage * float64(missCount)
	f := 1 - leads/float64(exec)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// GroupBySite buckets choices per injection site, preserving deterministic
// order (sites sorted, targets in input order).
func GroupBySite(choices []SiteChoice) (sites []int32, bySite map[int32][]SiteChoice) {
	bySite = make(map[int32][]SiteChoice)
	for _, c := range choices {
		if _, ok := bySite[c.Site]; !ok {
			sites = append(sites, c.Site)
		}
		bySite[c.Site] = append(bySite[c.Site], c)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites, bySite
}
