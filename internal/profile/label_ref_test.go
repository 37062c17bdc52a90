package profile

// The simulated labeling pass, kept as a differential oracle: it runs the
// program a second time under hooks and labels the live LBR. Labeling by
// replaying the profiling run's trace must return a ContextProfile
// reflect.DeepEqual to it (TestLabelMatchesReference, FuzzLabelReplay). Like
// the other kept references, it must not be optimized.

import (
	"ispy/internal/lbr"
	"ispy/internal/rng"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// CollectContextsRef exports the reference to the package's external tests,
// which select sites with internal/core.
var CollectContextsRef = collectContextsRef

// refPending is one not-yet-expired site execution awaiting its label.
type refPending struct {
	site     int32 // index into the instrumented sites
	cycle    uint64
	snapshot []int32
	hits     []bool // per target of the site: missed within the window
}

// refWant names target j of instrumented site i, whose line lies at byte
// offset delta of its block.
type refWant struct{ delta, site, target int32 }

// refHitSlab is how many per-target hit flags one slab allocation holds.
const refHitSlab = 4096

// collectContextsRef runs the labeling pass: for every execution of an
// instrumented site it snapshots the LBR and, windowCycles later, labels the
// snapshot per target.
func collectContextsRef(w *workload.Workload, in workload.Input, scfg sim.Config, sites []Targets, windowCycles uint64) *ContextProfile {
	scfg.Ideal = false
	cp := &ContextProfile{Sets: make(map[siteTarget]*LabeledSet)}
	// siteOf[b] is 1 + the index in sites of block b, or 0; sets[i][j] is
	// the evidence for target j of site i; wanted[b] lists every (site,
	// target) whose target line lies in block b, so a miss finds its labels
	// with one index and no hashing.
	siteOf := make([]int32, len(w.Prog.Blocks))
	sets := make([][]*LabeledSet, len(sites))
	wanted := make([][]refWant, len(w.Prog.Blocks))
	for i, t := range sites {
		siteOf[t.Site] = int32(i) + 1
		sets[i] = make([]*LabeledSet, len(t.Lines))
		for j, ln := range t.Lines {
			sets[i][j] = &LabeledSet{}
			cp.Sets[siteTarget{t.Site, ln}] = sets[i][j]
			wanted[ln.Block] = append(wanted[ln.Block], refWant{ln.Delta, int32(i), int32(j)})
		}
	}
	r := rng.New(w.Params.Seed ^ 0x51caffe)

	// The queue is in cycle order (cycles never decrease), so the expired
	// executions are a prefix of it; the rest moves to the front, so the
	// queue reuses one backing array. Hit flags are carved from slabs:
	// finalize is their last reader. Snapshots are allocated one by one,
	// because a reservoir may keep any one of them for the whole pass.
	var queue []refPending
	var hits []bool
	finalize := func(p *refPending) {
		for j, ls := range sets[p.site] {
			if p.hits[j] {
				ls.PosTotal++
				refReservoirAdd(&ls.Pos, p.snapshot, ls.PosTotal, r)
			} else {
				ls.NegTotal++
				refReservoirAdd(&ls.Neg, p.snapshot, ls.NegTotal, r)
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
				hits = make([]bool, max(refHitSlab, nt))
			}
			queue = append(queue, refPending{
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

// refReservoirAdd keeps a bounded uniform sample of snapshots. A kept
// snapshot is shared, never written: a replaced slot gets the new slice.
func refReservoirAdd(dst *[][]int32, snap []int32, total uint64, r *rng.Rand) {
	if len(*dst) < MaxLabeledSamples {
		*dst = append(*dst, snap)
		return
	}
	if j := r.Intn(int(total)); j < MaxLabeledSamples {
		(*dst)[j] = snap
	}
}
