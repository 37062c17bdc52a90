package traceio

import (
	"fmt"
	"io"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/isa"
)

// WritePlan serializes an injection plan: the miss-coverage counters, the
// coalescing histograms, and the planned prefetch list (Plan.Opt is not
// written). The stream has no magic or version of its own: it only travels
// as a section of an artifact-cache entry, whose container carries both.
func WritePlan(w io.Writer, p *core.Plan) error {
	e := newWriter(w)
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
	return e.flush()
}

// ReadPlan deserializes a plan written by WritePlan. Having no magic, the
// stream must end exactly where the plan does: trailing bytes are an error.
func ReadPlan(r io.Reader) (*core.Plan, error) {
	d := newReader(r)
	p := &core.Plan{
		MissesTotal:            d.uvarint(),
		MissesPlanned:          d.uvarint(),
		MissesUncovered:        d.uvarint(),
		DroppedCoalesceTargets: int(d.uvarint()),
		CoalescedLineCounts:    readInts(d, "coalesced line count"),
		CoalesceDistances:      readInts(d, "coalesce distance"),
	}
	n := d.count(1<<24, "prefetch")
	p.Prefetches = make([]core.PlannedPrefetch, 0, capHint(n, 4096))
	for i := 0; i < n && d.err == nil; i++ {
		pf := core.PlannedPrefetch{Site: int32(d.varint()), Kind: isa.Kind(d.uvarint()), MissCount: d.uvarint()}
		nt := d.count(1<<20, "prefetch target")
		for j := 0; j < nt && d.err == nil; j++ {
			pf.Targets = append(pf.Targets, cfg.LineKey{Block: int32(d.varint()), Delta: int32(d.varint())})
		}
		nc := d.count(1<<20, "prefetch context block")
		for j := 0; j < nc && d.err == nil; j++ {
			pf.CtxBlocks = append(pf.CtxBlocks, int32(d.varint()))
		}
		p.Prefetches = append(p.Prefetches, pf)
	}
	if _, err := d.r.ReadByte(); d.err == nil && err != io.EOF {
		d.err = fmt.Errorf("traceio: trailing data after plan")
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

// readInts decodes a count-prefixed list of non-negative ints.
func readInts(d *reader, what string) []int {
	n := d.count(1<<24, what)
	out := make([]int, 0, capHint(n, 4096))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, int(d.uvarint()))
	}
	return out
}
