// Package profile is the online-profiling stage of I-SPY's usage model
// (Fig. 9, step 1): it runs a workload under the simulator and converts the
// LBR/PEBS-analogue event streams into the miss-annotated dynamic CFG the
// offline analysis consumes.
//
// Two collection passes exist:
//
//   - Collect gathers the baseline profile: execution counts, dynamic edges,
//     per-block cycle costs, and per-line miss aggregates with bounded
//     reservoirs of 32-predecessor miss histories.
//   - CollectContexts is the context-labeling pass: given the injection
//     sites the analysis chose, it observes every execution of each site
//     and labels its LBR snapshot positive (a targeted miss followed within
//     the prefetch window) or negative. The labeled sets drive predictor-
//     block ranking and the Bayes-rule P(miss | context) computation of
//     §III-A. (The paper derives the same information from a single
//     LBR+PEBS trace; two simulator passes are an implementation
//     convenience, not extra information.)
package profile

import (
	"math/bits"

	"ispy/internal/cfg"
	"ispy/internal/isa"
	"ispy/internal/lbr"
	"ispy/internal/rng"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// MaxSamplesPerSite bounds each miss site's history reservoir.
const MaxSamplesPerSite = 48

// Profile is the result of the baseline profiling pass.
type Profile struct {
	// Graph is the miss-annotated dynamic CFG.
	Graph *cfg.Graph
	// Stats are the simulator statistics of the profiling run (the
	// "baseline, no prefetching" numbers).
	Stats *sim.Stats
	// AvgHashDensity is the mean fraction of runtime-hash bits set at miss
	// time. The offline analysis uses it to model the counting Bloom
	// filter's aliasing when scoring candidate contexts (a context whose
	// bits are almost always set by unrelated blocks cannot suppress
	// anything at run time).
	AvgHashDensity float64
	// Workload and Input echo what was profiled.
	Workload *workload.Workload
	Input    workload.Input
}

// histSlab is how many miss histories one slab allocation holds.
const histSlab = 256

// Collect profiles w under input in with simulator configuration scfg (the
// Ideal flag is forced off; profiling an ideal cache observes no misses).
func Collect(w *workload.Workload, in workload.Input, scfg sim.Config) *Profile {
	scfg.Ideal = false
	g := cfg.NewGraph(len(w.Prog.Blocks))
	r := rng.New(w.Params.Seed ^ 0x9e3779b9)

	// Successor counts accumulate per block and fill g.Edges after the run;
	// miss histories are carved from shared slabs of lbr.Depth entries each.
	edges := cfg.NewEdgeCounts(len(w.Prog.Blocks))
	var slab []cfg.PredEntry
	var prevBlock int32 = -1
	var prevCycle uint64
	var densitySum float64
	var densityN uint64
	hashBits := scfg.HashBits
	if hashBits == 0 {
		hashBits = sim.Default().HashBits
	}
	hooks := &sim.Hooks{
		OnBlock: func(block int, cycle uint64, _ *lbr.LBR) {
			b := int32(block)
			g.Exec[b]++
			if prevBlock >= 0 {
				edges.Add(prevBlock, b)
				g.Cycles[prevBlock] += float64(cycle - prevCycle)
			}
			prevBlock, prevCycle = b, cycle
		},
		OnMiss: func(block int, delta int32, cycle uint64, l *lbr.LBR) {
			site := g.Site(cfg.LineKey{Block: int32(block), Delta: delta})
			site.Count++
			g.TotalMisses++
			densitySum += float64(bits.OnesCount64(l.RuntimeHash())) / float64(hashBits)
			densityN++
			// Reservoir-sample the history.
			idx := -1
			if len(site.Samples) < MaxSamplesPerSite {
				if len(slab) == 0 {
					slab = make([]cfg.PredEntry, histSlab*lbr.Depth)
				}
				site.Samples = append(site.Samples, cfg.Sample{Preds: slab[:0:lbr.Depth]})
				slab = slab[lbr.Depth:]
				idx = len(site.Samples) - 1
			} else if j := r.Intn(int(site.Count)); j < MaxSamplesPerSite {
				idx = j
			}
			if idx < 0 {
				return
			}
			s := &site.Samples[idx]
			s.Preds = s.Preds[:0]
			var nowInstr uint64
			if l.Len() > 0 {
				nowInstr = l.At(0).Instrs
			}
			for i := 0; i < l.Len(); i++ {
				e := l.At(l.Len() - 1 - i) // oldest first
				s.Preds = append(s.Preds, cfg.PredEntry{
					Block:      e.Block,
					CycleDelta: uint32(cycle - e.Cycle),
					InstrDelta: uint32(nowInstr - e.Instrs),
				})
			}
		},
	}

	ex := workload.NewExecutor(w, in)
	st := sim.Run(w.Prog, ex, scfg, hooks)
	edges.Fill(g)
	p := &Profile{Graph: g, Stats: st, Workload: w, Input: in}
	if densityN > 0 {
		p.AvgHashDensity = densitySum / float64(densityN)
	}
	return p
}

// Targets lists, for one injection-site block, the miss lines whose
// prefetches the analysis wants to place there.
type Targets struct {
	Site  int32
	Lines []cfg.LineKey
}

// LabeledSet holds the labeled context evidence for one (site, target) pair.
type LabeledSet struct {
	// PosTotal / NegTotal are full counts of site executions after which the
	// target did (did not) miss within the window.
	PosTotal uint64
	NegTotal uint64
	// Pos / Neg are bounded reservoirs of LBR block-ID sets observed at the
	// site execution (the context evidence). The snapshots are read-only:
	// every target of a site execution holds the same slice.
	Pos [][]int32
	Neg [][]int32
}

// MaxLabeledSamples bounds each side's reservoir.
const MaxLabeledSamples = 96

// ContextProfile is the result of the labeling pass. A site's execution
// count is the PosTotal+NegTotal of any of its sets: every execution labels
// every target once.
type ContextProfile struct {
	// Sets maps (site, target) to its labeled evidence.
	Sets map[siteTarget]*LabeledSet
}

type siteTarget struct {
	site   int32
	target cfg.LineKey
}

// Get returns the labeled set for (site, target), or nil.
func (c *ContextProfile) Get(site int32, target cfg.LineKey) *LabeledSet {
	return c.Sets[siteTarget{site, target}]
}

// pending is one not-yet-expired site execution awaiting its label.
type pending struct {
	site     int32 // index into the instrumented sites
	cycle    uint64
	snapshot []int32
	hits     []bool // per target of the site: missed within the window
}

// want names target j of instrumented site i, whose line lies at byte
// offset delta of its block.
type want struct{ delta, site, target int32 }

// hitSlab is how many per-target hit flags one slab allocation holds.
const hitSlab = 4096

// CollectContexts runs the labeling pass: for every execution of an
// instrumented site it snapshots the LBR and, windowCycles later, labels the
// snapshot per target. The same workload input as the baseline profile
// should be used (profiles describe the profiled input; Fig. 16 then tests
// other inputs).
func CollectContexts(w *workload.Workload, in workload.Input, scfg sim.Config, sites []Targets, windowCycles uint64) *ContextProfile {
	scfg.Ideal = false
	cp := &ContextProfile{Sets: make(map[siteTarget]*LabeledSet)}
	// siteOf[b] is 1 + the index in sites of block b, or 0; sets[i][j] is
	// the evidence for target j of site i; wanted[b] lists every (site,
	// target) whose target line lies in block b, so a miss finds its labels
	// with one index and no hashing.
	siteOf := make([]int32, len(w.Prog.Blocks))
	sets := make([][]*LabeledSet, len(sites))
	wanted := make([][]want, len(w.Prog.Blocks))
	for i, t := range sites {
		siteOf[t.Site] = int32(i) + 1
		sets[i] = make([]*LabeledSet, len(t.Lines))
		for j, ln := range t.Lines {
			sets[i][j] = &LabeledSet{}
			cp.Sets[siteTarget{t.Site, ln}] = sets[i][j]
			wanted[ln.Block] = append(wanted[ln.Block], want{ln.Delta, int32(i), int32(j)})
		}
	}
	r := rng.New(w.Params.Seed ^ 0x51caffe)

	// The queue is in cycle order (cycles never decrease), so the expired
	// executions are a prefix of it; the rest moves to the front, so the
	// queue reuses one backing array. Hit flags are carved from slabs:
	// finalize is their last reader. Snapshots are allocated one by one,
	// because a reservoir may keep any one of them for the whole pass.
	var queue []pending
	var hits []bool
	finalize := func(p *pending) {
		for j, ls := range sets[p.site] {
			if p.hits[j] {
				ls.PosTotal++
				reservoirAdd(&ls.Pos, p.snapshot, ls.PosTotal, r)
			} else {
				ls.NegTotal++
				reservoirAdd(&ls.Neg, p.snapshot, ls.NegTotal, r)
			}
		}
	}

	hooks := &sim.Hooks{
		OnBlock: func(block int, cycle uint64, l *lbr.LBR) {
			n := 0
			for n < len(queue) && cycle-queue[n].cycle > windowCycles {
				finalize(&queue[n])
				n++
			}
			if n > 0 {
				queue = queue[:copy(queue, queue[n:])]
			}
			i := siteOf[block] - 1
			if i < 0 {
				return
			}
			nt := len(sets[i])
			if len(hits) < nt {
				hits = make([]bool, max(hitSlab, nt))
			}
			queue = append(queue, pending{
				site:     i,
				cycle:    cycle,
				snapshot: l.Blocks(make([]int32, 0, l.Len())),
				hits:     hits[:nt:nt],
			})
			hits = hits[nt:]
		},
		OnMiss: func(block int, delta int32, cycle uint64, _ *lbr.LBR) {
			labels := wanted[block]
			if len(labels) == 0 {
				return
			}
			for i := range queue {
				p := &queue[i]
				if cycle-p.cycle > windowCycles {
					continue
				}
				for _, lb := range labels {
					if lb.delta == delta && lb.site == p.site {
						p.hits[lb.target] = true
					}
				}
			}
		},
	}

	ex := workload.NewExecutor(w, in)
	sim.Run(w.Prog, ex, scfg, hooks)
	for i := range queue {
		finalize(&queue[i])
	}
	return cp
}

// reservoirAdd keeps a bounded uniform sample of snapshots. A kept snapshot
// is shared, never written: a replaced slot gets the new slice.
func reservoirAdd(dst *[][]int32, snap []int32, total uint64, r *rng.Rand) {
	if len(*dst) < MaxLabeledSamples {
		*dst = append(*dst, snap)
		return
	}
	if j := r.Intn(int(total)); j < MaxLabeledSamples {
		(*dst)[j] = snap
	}
}

// ResolveLine maps a symbolic line key to its concrete line address under
// the given (possibly re-laid-out) program.
func ResolveLine(p *isa.Program, key cfg.LineKey) isa.Addr {
	base := p.Blocks[key.Block].Addr
	return isa.LineOf(isa.Addr(int64(base) + int64(key.Delta)))
}
