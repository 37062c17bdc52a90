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
// each, sized by a first pass over the counts, so a plan of any length
// takes six allocations.
func DecodePlan(b []byte) (*core.Plan, error) {
	d := &reader{b: b}
	p := &core.Plan{
		MissesTotal:            d.uvarint(),
		MissesPlanned:          d.uvarint(),
		MissesUncovered:        d.uvarint(),
		DroppedCoalesceTargets: int(d.uvarint()),
		CoalescedLineCounts:    d.ints("coalesced line count"),
		CoalesceDistances:      d.ints("coalesce distance"),
	}
	n := d.count(1<<24, "prefetch")
	nt, nc, err := planCounts(*d, n)
	if err != nil {
		return nil, err
	}
	targets, ctx := make([]cfg.LineKey, nt), make([]int32, nc)
	p.Prefetches = make([]core.PlannedPrefetch, n)
	for i := range p.Prefetches {
		pf := &p.Prefetches[i]
		pf.Site, pf.Kind, pf.MissCount = int32(d.varint()), isa.Kind(d.uvarint()), d.uvarint()
		pf.Targets, targets = take(targets, d.count(1<<20, "prefetch target"))
		for j := range pf.Targets {
			pf.Targets[j] = cfg.LineKey{Block: int32(d.varint()), Delta: int32(d.varint())}
		}
		pf.CtxBlocks, ctx = take(ctx, d.count(1<<20, "prefetch context block"))
		for j := range pf.CtxBlocks {
			pf.CtxBlocks[j] = int32(d.varint())
		}
	}
	if d.ok() && d.off != len(d.b) {
		d.fail(fmt.Errorf("traceio: trailing data after plan"))
	}
	if err := d.failure(); err != nil {
		return nil, err
	}
	return p, nil
}

// planCounts returns how many targets and context blocks the n prefetches
// at d's offset hold. It reads a copy of d, which DecodePlan then reads
// again: both passes see the same counts at the same offsets, so the second
// never takes more than the first counted.
func planCounts(d reader, n int) (targets, ctx int, err error) {
	for i := 0; i < n && d.ok(); i++ {
		d.skip(3) // site, kind, miss count
		k := d.count(1<<20, "prefetch target")
		d.skip(2 * k)
		targets += k
		k = d.count(1<<20, "prefetch context block")
		d.skip(k)
		ctx += k
	}
	return targets, ctx, d.failure()
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
