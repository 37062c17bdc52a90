// Prefetch planning and injection: coalescing grouping (§III-B, Fig. 8),
// instruction-kind selection (§IV), link-time code injection with re-layout,
// and post-layout operand fixup (context hashes and coalescing bit-vectors
// must encode *final* addresses, exactly as a link-time injector would emit
// them).
package core

import (
	"fmt"
	"sort"

	"ispy/internal/cfg"
	"ispy/internal/hashx"
	"ispy/internal/isa"
	"ispy/internal/profile"
)

// PlannedPrefetch is one prefetch instruction awaiting injection.
type PlannedPrefetch struct {
	// Site is the block that hosts the instruction.
	Site int32
	// Targets are the miss lines the instruction covers (1 for
	// non-coalesced kinds; Targets[0] is the base line).
	Targets []cfg.LineKey
	// CtxBlocks is the predictor-block set (empty = unconditional).
	CtxBlocks []int32
	// Kind is the chosen instruction kind.
	Kind isa.Kind
	// MissCount is the summed miss count the instruction addresses
	// (bookkeeping for coverage accounting).
	MissCount uint64
}

// Plan is the full injection plan plus analysis bookkeeping.
type Plan struct {
	Opt Options
	// Prefetches lists every planned instruction.
	Prefetches []PlannedPrefetch

	// MissesTotal / MissesPlanned / MissesUncovered partition the profiled
	// miss mass (counts, not lines).
	MissesTotal     uint64
	MissesPlanned   uint64
	MissesUncovered uint64

	// DroppedCoalesceTargets counts lines that fell out of their coalescing
	// window after re-layout (should be ≈0; reported for honesty).
	DroppedCoalesceTargets int

	// CoalescedLineCounts records, per coalesced instruction, how many
	// lines it brings in (Fig. 20 right); CoalesceDistances records each
	// non-base line's distance in lines (Fig. 20 left). Filled by Apply.
	CoalescedLineCounts []int
	CoalesceDistances   []int
}

// KindCounts returns planned instruction counts by kind.
func (p *Plan) KindCounts() map[isa.Kind]int {
	m := make(map[isa.Kind]int, 4)
	for i := range p.Prefetches {
		m[p.Prefetches[i].Kind]++
	}
	return m
}

// PlanSummary is what a plan-only reader reads of a plan: the miss
// counters, the coalescing histograms (Fig. 20), and the prefetch counts
// that the analyze response and the static footprint need. The artifact
// cache reads it from a plan section without building the prefetch list.
type PlanSummary struct {
	MissesTotal     uint64
	MissesPlanned   uint64
	MissesUncovered uint64

	CoalescedLineCounts []int
	CoalesceDistances   []int

	// Prefetches counts the planned instructions, Conditional those with
	// context blocks, and Coalesced those with more than one target.
	Prefetches  int
	Conditional int
	Coalesced   int
	// Kinds counts the instructions of each prefetch kind at index
	// Kind − isa.KindPrefetch (isa numbers the four kinds consecutively).
	// An instruction of another kind occupies no bytes and is not counted.
	Kinds [4]int
}

// Summary returns p's summary; its histograms are p's.
func (p *Plan) Summary() PlanSummary {
	s := PlanSummary{
		MissesTotal:         p.MissesTotal,
		MissesPlanned:       p.MissesPlanned,
		MissesUncovered:     p.MissesUncovered,
		CoalescedLineCounts: p.CoalescedLineCounts,
		CoalesceDistances:   p.CoalesceDistances,
	}
	for i := range p.Prefetches {
		pf := &p.Prefetches[i]
		s.Count(pf.Kind, len(pf.Targets), len(pf.CtxBlocks))
	}
	return s
}

// Count adds one planned instruction of kind k with the given numbers of
// targets and context blocks.
func (s *PlanSummary) Count(k isa.Kind, targets, ctxBlocks int) {
	s.Prefetches++
	if ctxBlocks > 0 {
		s.Conditional++
	}
	if targets > 1 {
		s.Coalesced++
	}
	if i := int(k - isa.KindPrefetch); i < len(s.Kinds) {
		s.Kinds[i]++
	}
}

// BuildPlan converts per-target site choices and discovered contexts into a
// deduplicated, coalesced instruction plan. contexts maps target → result;
// entries may be missing (unconditional).
func BuildPlan(prog *isa.Program, choices []SiteChoice, contexts map[cfg.LineKey]ContextResult, totalMisses uint64, uncovered uint64, opt Options) *Plan {
	opt = opt.withDefaults()
	plan := &Plan{Opt: opt, MissesTotal: totalMisses, MissesUncovered: uncovered}

	sites, bySite := GroupBySite(choices)
	for _, site := range sites {
		group := bySite[site]
		// Partition the site's targets by context set.
		type entry struct {
			choice SiteChoice
			ctx    []int32
		}
		byCtx := make(map[string][]entry)
		var ctxKeys []string
		for _, c := range group {
			var ctx []int32
			if res, ok := contexts[c.Target]; ok && res.Conditional() {
				ctx = res.Blocks
			}
			key := ctxKey(ctx)
			if _, ok := byCtx[key]; !ok {
				ctxKeys = append(ctxKeys, key)
			}
			byCtx[key] = append(byCtx[key], entry{c, ctx})
		}
		sort.Strings(ctxKeys)

		for _, key := range ctxKeys {
			entries := byCtx[key]
			ctx := entries[0].ctx
			// Sort targets by their current-layout line address so greedy
			// window grouping is geometric.
			sort.Slice(entries, func(i, j int) bool {
				return profile.ResolveLine(prog, entries[i].choice.Target) < profile.ResolveLine(prog, entries[j].choice.Target)
			})
			if !opt.Coalesce {
				for _, e := range entries {
					plan.add(site, []cfg.LineKey{e.choice.Target}, ctx, e.choice.MissCount, opt)
				}
				continue
			}
			// Greedy windowed grouping; leave one line of slack for
			// re-layout shift (injection bytes between two grouped targets
			// can stretch their distance).
			window := uint64(opt.CoalesceBits - 1)
			if opt.CoalesceBits <= 1 {
				window = 0
			}
			i := 0
			for i < len(entries) {
				base := profile.ResolveLine(prog, entries[i].choice.Target)
				targets := []cfg.LineKey{entries[i].choice.Target}
				misses := entries[i].choice.MissCount
				j := i + 1
				for j < len(entries) {
					d := (uint64(profile.ResolveLine(prog, entries[j].choice.Target)) - uint64(base)) / isa.LineSize
					if d == 0 {
						// Duplicate line (two symbolic keys resolving to
						// the same line); absorb it.
						misses += entries[j].choice.MissCount
						j++
						continue
					}
					if d > window {
						break
					}
					targets = append(targets, entries[j].choice.Target)
					misses += entries[j].choice.MissCount
					j++
				}
				plan.add(site, targets, ctx, misses, opt)
				i = j
			}
		}
	}
	return plan
}

func (p *Plan) add(site int32, targets []cfg.LineKey, ctx []int32, missCount uint64, opt Options) {
	kind := isa.KindPrefetch
	switch {
	case len(ctx) > 0 && len(targets) > 1:
		kind = isa.KindCLprefetch
	case len(ctx) > 0:
		kind = isa.KindCprefetch
	case len(targets) > 1:
		kind = isa.KindLprefetch
	}
	p.Prefetches = append(p.Prefetches, PlannedPrefetch{
		Site:      site,
		Targets:   targets,
		CtxBlocks: ctx,
		Kind:      kind,
		MissCount: missCount,
	})
	p.MissesPlanned += missCount
}

// ctxKey canonicalizes a context-block set (§III-B groups prefetches for
// coalescing by identical context).
func ctxKey(ctx []int32) string {
	if len(ctx) == 0 {
		return ""
	}
	s := append([]int32(nil), ctx...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]byte, 0, len(s)*5)
	for _, b := range s {
		out = append(out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24), ',')
	}
	return string(out)
}

// operandBytes returns the byte widths of the context-hash and coalescing
// bit-vector operands under o.
func (o Options) operandBytes() (ctxBytes, vecBytes int) {
	return (o.HashBits + 7) / 8, (o.CoalesceBits + 7) / 8
}

// PrefetchBytes returns the bytes the summarized plan's instructions occupy
// in the injected program when the build ran under opt: each at its final
// kind's encoded size, as Apply wrote it. It equals the injected program's
// PrefetchBytes, so a reader holding only the summary can price the static
// footprint. opt is needed because a plan read from the artifact cache
// carries no Opt.
func (s *PlanSummary) PrefetchBytes(opt Options) uint64 {
	ctxBytes, vecBytes := opt.withDefaults().operandBytes()
	var n uint64
	for i, c := range s.Kinds {
		n += uint64(c) * uint64(isa.PrefetchKindSize(isa.KindPrefetch+isa.Kind(i), ctxBytes, vecBytes))
	}
	return n
}

// Apply injects the plan into a copy of base, re-lays-out the text segment
// (code bloat shifts addresses as link-time injection would), and fixes up
// operands against the final layout. Because injected bytes shift line
// boundaries inside a function, a profiled line's code can straddle two
// lines of the new layout; Apply covers the straddle exactly with the
// coalescing bit-vector, upgrading Prefetch→Lprefetch (and
// Cprefetch→CLprefetch) where needed — iterating to a fixpoint since
// upgrades themselves change sizes. It returns the rewritten program.
//
// base is the uninjected (profiled) program. The copy is copy-on-write, as
// a link-time injector rewrites only the blocks that host a prefetch and
// moves every other one: it has its own block headers (layout rewrites
// Addr) and shares base's Funcs and the instruction list of every block
// that hosts no prefetch. Each site block gets a new list at its final
// length; base's list is never appended to, since another build of the
// same base may be filling its spare capacity. base holds no prefetch, so
// neither does a shared list, and layout's TargetAddr writes never reach
// base.
func (p *Plan) Apply(base *isa.Program) *isa.Program {
	ctxBytes, vecBytes := p.Opt.operandBytes()
	prog := &isa.Program{Blocks: make([]isa.Block, len(base.Blocks)), Funcs: base.Funcs, TextSize: base.TextSize}
	copy(prog.Blocks, base.Blocks)
	hosted := make(map[int32]int) // prefetches each site block hosts
	for i := range p.Prefetches {
		hosted[p.Prefetches[i].Site]++
	}

	// Inject in plan order within each site, before the block body (the
	// prefetch runs at block entry, the moment the site was chosen for).
	type placed struct {
		planIdx int
		site    int32
		slot    int
	}
	placements := make([]placed, 0, len(p.Prefetches))
	perSiteCount := make(map[int32]int)
	injectedAt := make(map[int32]int) // bytes inserted at each site block
	for i := range p.Prefetches {
		pf := &p.Prefetches[i]
		in := isa.Instr{
			Kind:        pf.Kind,
			Size:        uint8(isa.PrefetchKindSize(pf.Kind, ctxBytes, vecBytes)),
			TargetBlock: pf.Targets[0].Block,
			TargetDelta: pf.Targets[0].Delta,
		}
		blk := &prog.Blocks[pf.Site]
		slot, seen := perSiteCount[pf.Site]
		if !seen {
			// The site's first prefetch: a new list with room for all of
			// them ahead of the block's own instructions.
			body := base.Blocks[pf.Site].Instrs
			n := hosted[pf.Site]
			blk.Instrs = make([]isa.Instr, n+len(body))
			copy(blk.Instrs[n:], body)
		}
		blk.Instrs[slot] = in
		perSiteCount[pf.Site] = slot + 1
		injectedAt[pf.Site] += int(in.Size)
		placements = append(placements, placed{i, pf.Site, slot})
	}

	// newLinesOf maps one profiled target to the final line(s) covering its
	// original 64 code bytes: the byte at old offset d of block B now sits
	// at newAddr(B) + injectedAt(B) + d.
	newLinesOf := func(t cfg.LineKey) (first, second isa.Addr) {
		oldLineOff := int64(t.Delta) // line start relative to old block start
		newStart := int64(prog.Blocks[t.Block].Addr) + int64(injectedAt[t.Block]) + oldLineOff
		first = isa.LineOf(isa.Addr(newStart))
		second = isa.LineOf(isa.Addr(newStart + isa.LineSize - 1))
		return first, second
	}

	// Upgrade loop: lay out, then upgrade any single-line prefetch whose
	// target now straddles two lines so the bit-vector can cover both.
	// Upgrades are monotone (never reverted), so this converges.
	for {
		prog.Layout()
		upgraded := false
		for _, pl := range placements {
			pf := &p.Prefetches[pl.planIdx]
			if pf.Kind.IsCoalesced() || len(pf.Targets) > 1 {
				continue
			}
			if first, second := newLinesOf(pf.Targets[0]); first != second {
				in := &prog.Blocks[pl.site].Instrs[pl.slot]
				switch pf.Kind {
				case isa.KindPrefetch:
					pf.Kind = isa.KindLprefetch
				case isa.KindCprefetch:
					pf.Kind = isa.KindCLprefetch
				}
				in.Kind = pf.Kind
				injectedAt[pl.site] += isa.PrefetchKindSize(pf.Kind, ctxBytes, vecBytes) - int(in.Size)
				in.Size = uint8(isa.PrefetchKindSize(pf.Kind, ctxBytes, vecBytes))
				upgraded = true
			}
		}
		if !upgraded {
			break
		}
	}

	// Final operand fixup against the settled layout.
	p.CoalescedLineCounts = p.CoalescedLineCounts[:0]
	p.CoalesceDistances = p.CoalesceDistances[:0]
	p.DroppedCoalesceTargets = 0
	for _, pl := range placements {
		pf := &p.Prefetches[pl.planIdx]
		in := &prog.Blocks[pl.site].Instrs[pl.slot]

		if len(pf.CtxBlocks) > 0 {
			addrs := make([]uint64, len(pf.CtxBlocks))
			ctxAddrs := make([]isa.Addr, len(pf.CtxBlocks))
			for i, b := range pf.CtxBlocks {
				a := prog.Blocks[b].Addr
				addrs[i] = uint64(a)
				ctxAddrs[i] = a
			}
			in.CtxHash = hashx.ContextHash(addrs, p.Opt.HashBits)
			in.CtxAddrs = ctxAddrs
		}

		// Collect every final line the instruction must cover, tracking
		// which target anchors the lowest line.
		var lines []isa.Addr
		minLine := isa.Addr(^uint64(0))
		anchor := pf.Targets[0]
		for _, t := range pf.Targets {
			first, second := newLinesOf(t)
			lines = append(lines, first)
			if second != first {
				lines = append(lines, second)
			}
			if first < minLine {
				minLine, anchor = first, t
			}
		}
		// Re-anchor the symbolic target so that plain resolution
		// (LineOf(blockAddr + delta)) reproduces exactly the line this
		// fixup chose: fold the bytes injected at the anchor's block into
		// the delta. This keeps the instruction stable under re-layout and
		// serialization round trips.
		in.TargetBlock = anchor.Block
		in.TargetDelta = anchor.Delta + int32(injectedAt[anchor.Block])
		in.TargetAddr = minLine

		if in.Kind.IsCoalesced() {
			var vec uint64
			nLines := 1
			for _, ln := range lines {
				if ln == minLine {
					continue
				}
				d := int((uint64(ln) - uint64(minLine)) / isa.LineSize)
				if d > p.Opt.CoalesceBits {
					p.DroppedCoalesceTargets++
					continue
				}
				if vec&(1<<(d-1)) == 0 {
					vec |= 1 << (d - 1)
					nLines++
					p.CoalesceDistances = append(p.CoalesceDistances, d)
				}
			}
			in.BitVec = vec
			p.CoalescedLineCounts = append(p.CoalescedLineCounts, nLines)
		}
	}

	if err := prog.Validate(); err != nil {
		panic(fmt.Sprintf("core: injected program invalid: %v", err))
	}
	return prog
}
