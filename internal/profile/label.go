// The context-labeling pass (§III-A): every execution of an instrumented
// site is labeled, per target, by whether the target missed within the
// prefetch window, and a bounded reservoir keeps the execution's LBR
// contents as context evidence.
package profile

import (
	"ispy/internal/cfg"
	"ispy/internal/lbr"
	"ispy/internal/rng"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

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

// Label runs the labeling pass over the profiled workload and input under
// scfg: for every execution of an instrumented site it snapshots the LBR
// and, windowCycles later, labels the snapshot per target. It replays the
// profile's own trace when the profile was collected under scfg; otherwise
// (a profile loaded from disk or uploaded, or another budget) one
// simulation records a trace to replay, which the profile keeps for every
// later label under scfg. It is safe for concurrent use.
func (p *Profile) Label(scfg sim.Config, sites []Targets, windowCycles uint64) *ContextProfile {
	lb := newLabeler(p.Workload, sites, windowCycles)
	if len(sites) == 0 {
		return lb.cp
	}
	scfg.Ideal = false
	p.traceAt(scfg).replay(p.Workload, p.Input, lb)
	return lb.cp
}

// traceAt returns the trace of the profiled run under scfg: the profile's
// own, or the one recorded under scfg on first use.
func (p *Profile) traceAt(scfg sim.Config) *trace {
	if p.trace != nil && p.trace.cfg == scfg {
		return p.trace
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.recorded {
		if t.cfg == scfg {
			return t
		}
	}
	t := record(p.Workload, p.Input, scfg)
	p.recorded = append(p.recorded, t)
	return t
}

// CollectContexts is Label for a workload and input without a profile: it
// records the run's trace, then replays it. The same workload input as the
// baseline profile should be used (profiles describe the profiled input;
// Fig. 16 then tests other inputs).
func CollectContexts(w *workload.Workload, in workload.Input, scfg sim.Config, sites []Targets, windowCycles uint64) *ContextProfile {
	return (&Profile{Workload: w, Input: in}).Label(scfg, sites, windowCycles)
}

// labeler turns a replayed run into labeled evidence. It queues every site
// execution in cycle order; once the run is over it labels them in that
// order, which is the order each leaves the prefetch window, so every
// reservoir can be allocated at its final size.
type labeler struct {
	cp     *ContextProfile
	seed   uint64 // of the reservoirs' draws
	window uint64
	// siteOf[b] is 1 + the index in the sites of block b, or 0; sets[i][j]
	// is the evidence for target j of site i; wanted[b] lists every (site,
	// target) whose target line lies in block b, so a miss finds its labels
	// with one index and no hashing.
	siteOf []int32
	sets   [][]*LabeledSet
	wanted [][]want

	// execs[live:] are the executions a miss may still be within the
	// window of; hits holds every execution's per-target flags.
	execs []execution
	live  int
	hits  []bool
}

// execution is one site execution. Its LBR snapshot is the replay's LBR
// history from index top, and its per-target hit flags start at index hit
// of the labeler's hits.
type execution struct {
	cycle    uint64
	site     int32 // index into the instrumented sites
	hit, top int32
}

// want names target j of instrumented site i, whose line lies at byte
// offset delta of its block.
type want struct{ delta, site, target int32 }

func newLabeler(w *workload.Workload, sites []Targets, windowCycles uint64) *labeler {
	lb := &labeler{
		cp:     &ContextProfile{Sets: make(map[siteTarget]*LabeledSet)},
		seed:   w.Params.Seed ^ 0x51caffe,
		window: windowCycles,
	}
	if len(sites) == 0 {
		return lb
	}
	lb.siteOf = make([]int32, len(w.Prog.Blocks))
	lb.sets = make([][]*LabeledSet, len(sites))
	lb.wanted = make([][]want, len(w.Prog.Blocks))
	n := 0
	for _, t := range sites {
		n += len(t.Lines)
	}
	slab := make([]LabeledSet, n)
	for i, t := range sites {
		lb.siteOf[t.Site] = int32(i) + 1
		lb.sets[i] = make([]*LabeledSet, len(t.Lines))
		for j, ln := range t.Lines {
			lb.sets[i][j] = &slab[0]
			slab = slab[1:]
			lb.cp.Sets[siteTarget{t.Site, ln}] = lb.sets[i][j]
			lb.wanted[ln.Block] = append(lb.wanted[ln.Block], want{ln.Delta, int32(i), int32(j)})
		}
	}
	return lb
}

// block observes a measured block entry, with the LBR's block IDs newest
// first at hist[top:]: it queues the execution if the block is a site.
func (lb *labeler) block(block int32, cycle uint64, top int) {
	for lb.live < len(lb.execs) && cycle-lb.execs[lb.live].cycle > lb.window {
		lb.live++
	}
	i := lb.siteOf[block] - 1
	if i < 0 {
		return
	}
	lb.execs = append(lb.execs, execution{cycle: cycle, site: i, hit: int32(len(lb.hits)), top: int32(top)})
	lb.hits = append(lb.hits, make([]bool, len(lb.sets[i]))...)
}

// miss observes an L1I miss of the line at byte offset delta of block:
// every queued execution inside the window whose site targets that line is
// a hit.
func (lb *labeler) miss(block, delta int32, cycle uint64) {
	labels := lb.wanted[block]
	if len(labels) == 0 {
		return
	}
	for k := lb.live; k < len(lb.execs); k++ {
		e := &lb.execs[k]
		if cycle-e.cycle > lb.window {
			continue
		}
		for _, l := range labels {
			if l.delta == delta && l.site == e.site {
				lb.hits[int(e.hit)+int(l.target)] = true
			}
		}
	}
}

// finish labels every execution for each target of its site, in order,
// once the replay is over; hist is its LBR history.
func (lb *labeler) finish(hist []int32) {
	// Count the labels first, to give every reservoir its final size.
	for _, e := range lb.execs {
		for j, ls := range lb.sets[e.site] {
			if lb.hits[int(e.hit)+j] {
				ls.PosTotal++
			} else {
				ls.NegTotal++
			}
		}
	}
	n := 0
	for _, sets := range lb.sets {
		for _, ls := range sets {
			n += int(min(ls.PosTotal, MaxLabeledSamples) + min(ls.NegTotal, MaxLabeledSamples))
		}
	}
	slab := make([][]int32, n)
	carve := func(total uint64) [][]int32 {
		k := int(min(total, MaxLabeledSamples))
		if k == 0 {
			return nil
		}
		s := slab[:0:k]
		slab = slab[k:]
		return s
	}
	for _, sets := range lb.sets {
		for _, ls := range sets {
			ls.Pos, ls.Neg = carve(ls.PosTotal), carve(ls.NegTotal)
			ls.PosTotal, ls.NegTotal = 0, 0
		}
	}
	r := rng.New(lb.seed)
	for _, e := range lb.execs {
		// Snapshots share the history: no later push overwrote it.
		end := min(int(e.top)+lbr.Depth, len(hist))
		snap := hist[e.top:end:end]
		for j, ls := range lb.sets[e.site] {
			if lb.hits[int(e.hit)+j] {
				ls.PosTotal++
				reservoirAdd(&ls.Pos, snap, ls.PosTotal, r)
			} else {
				ls.NegTotal++
				reservoirAdd(&ls.Neg, snap, ls.NegTotal, r)
			}
		}
	}
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
