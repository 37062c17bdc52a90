package traceio

import (
	"fmt"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/isa"
)

// AppendPlan appends the encoding of an injection plan to b: the
// miss-coverage counters, the coalescing histograms, and the planned
// prefetch list (Plan.Opt is not written). The encoding has no magic or
// version of its own: it only travels as a section of an artifact-cache
// entry, whose container carries both.
func AppendPlan(b []byte, p *core.Plan) []byte {
	e := writer{b: b}
	e.uvarint(p.MissesTotal)
	e.uvarint(p.MissesPlanned)
	e.uvarint(p.MissesUncovered)
	e.uvarint(uint64(p.DroppedCoalesceTargets))
	for _, list := range [][]int{p.CoalescedLineCounts, p.CoalesceDistances} {
		e.uvarint(uint64(len(list)))
		for _, v := range list {
			e.uvarint(uint64(v))
		}
	}
	e.uvarint(uint64(len(p.Prefetches)))
	for i := range p.Prefetches {
		pf := &p.Prefetches[i]
		e.varint(int64(pf.Site))
		e.uvarint(uint64(pf.Kind))
		e.uvarint(pf.MissCount)
		e.uvarint(uint64(len(pf.Targets)))
		for _, t := range pf.Targets {
			e.varint(int64(t.Block))
			e.varint(int64(t.Delta))
		}
		e.uvarint(uint64(len(pf.CtxBlocks)))
		for _, b := range pf.CtxBlocks {
			e.varint(int64(b))
		}
	}
	return e.b
}

// DecodePlan deserializes a plan encoded by AppendPlan. Having no magic,
// the encoding must end exactly where the plan does: trailing bytes are an
// error. Every prefetch's Targets and CtxBlocks are windows into one array
// each, sized by walkPlan's totals, so a plan of any length takes six
// allocations.
func DecodePlan(b []byte) (*core.Plan, error) {
	w, err := walkPlan(b)
	if err != nil {
		return nil, err
	}
	p := &core.Plan{
		MissesTotal:            w.MissesTotal,
		MissesPlanned:          w.MissesPlanned,
		MissesUncovered:        w.MissesUncovered,
		DroppedCoalesceTargets: w.dropped,
		CoalescedLineCounts:    w.CoalescedLineCounts,
		CoalesceDistances:      w.CoalesceDistances,
		Prefetches:             make([]core.PlannedPrefetch, w.Prefetches),
	}
	targets, ctx := make([]cfg.LineKey, w.targets), make([]int32, w.ctx)
	// The walk read and checked every byte this pass reads, so no read can
	// fail and every count is one the walk summed.
	d := &reader{b: b, off: w.start}
	for i := range p.Prefetches {
		pf := &p.Prefetches[i]
		pf.Site, pf.Kind, pf.MissCount = int32(d.varint()), isa.Kind(d.uvarint()), d.uvarint()
		pf.Targets, targets = take(targets, int(d.uvarint()))
		for j := range pf.Targets {
			pf.Targets[j] = cfg.LineKey{Block: int32(d.varint()), Delta: int32(d.varint())}
		}
		pf.CtxBlocks, ctx = take(ctx, int(d.uvarint()))
		for j := range pf.CtxBlocks {
			pf.CtxBlocks[j] = int32(d.varint())
		}
	}
	return p, nil
}

// DecodePlanSummary reads the summary of a plan encoded by AppendPlan
// without building its prefetch list. It fails on exactly the encodings
// DecodePlan fails on, and allocates only the two histograms.
func DecodePlanSummary(b []byte) (core.PlanSummary, error) {
	w, err := walkPlan(b)
	if err != nil {
		return core.PlanSummary{}, err
	}
	return w.PlanSummary, nil
}

// planWalk is what one pass over a plan encoding reads: the summary, the
// one counter only DecodePlan needs, where the prefetch list starts, and
// the targets and context blocks summed over it.
type planWalk struct {
	core.PlanSummary
	dropped      int
	start        int
	targets, ctx int
}

// walkPlan reads a plan encoding in one pass, the only one that can fail:
// it reads every varint with the inline readers, checks every element count
// against the bytes left, and rejects trailing bytes. It allocates only the
// two histograms. Its cost is the control flow per prefetch, not the
// varint bytes.
func walkPlan(b []byte) (w planWalk, err error) {
	d := &reader{b: b}
	w.MissesTotal, w.MissesPlanned, w.MissesUncovered = d.uvarint(), d.uvarint(), d.uvarint()
	w.dropped = int(d.uvarint())
	w.CoalescedLineCounts = d.ints("coalesced line count")
	w.CoalesceDistances = d.ints("coalesce distance")
	n := d.count(1<<24, "prefetch")
	w.start = d.off
	for i := 0; i < n && d.ok(); i++ {
		d.uvarint() // site: a zigzag varint has a uvarint's bytes
		kind := isa.Kind(d.uvarint())
		d.uvarint() // miss count
		nt := d.count(1<<20, "prefetch target")
		for j := 0; j < 2*nt; j++ {
			d.uvarint()
		}
		nc := d.count(1<<20, "prefetch context block")
		for j := 0; j < nc; j++ {
			d.uvarint()
		}
		w.Count(kind, nt, nc)
		w.targets += nt
		w.ctx += nc
	}
	if d.ok() && d.off != len(d.b) {
		d.fail(fmt.Errorf("traceio: trailing data after plan"))
	}
	return w, d.failure()
}

// take splits the first k elements off s, as a window that cannot grow into
// the rest; nil when k is 0.
func take[T any](s []T, k int) (head, rest []T) {
	if k == 0 {
		return nil, s
	}
	return s[:k:k], s[k:]
}

// ints decodes a count-prefixed list of non-negative ints.
func (d *reader) ints(what string) []int {
	out := make([]int, d.count(1<<24, what))
	for i := range out {
		out[i] = int(d.uvarint())
	}
	return out
}
