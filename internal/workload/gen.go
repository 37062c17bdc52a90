// Program generation: turns Params into a concrete Workload.
package workload

import (
	"fmt"

	"ispy/internal/isa"
	"ispy/internal/rng"
)

// Generate builds the workload described by p. Generation is deterministic
// in p.Seed.
func Generate(p Params) *Workload {
	p.setDefaults()
	b := &builder{
		p:    &p,
		r:    rng.New(p.Seed),
		prog: &isa.Program{},
	}

	// Bottom-up so every call target exists when its caller is generated.
	helpers := make([]int, p.SharedHelpers)
	for i := range helpers {
		helpers[i] = b.genBodyFunc(fmt.Sprintf("helper_%d", i), p.SharedHelperBlocks, bodyOpts{
			coldFrac: p.ColdFrac / 2, loopFrac: p.LoopFrac / 2,
		})
	}

	parseFns := make([]int, p.NumTypes)
	for t := range parseFns {
		parseFns[t] = b.genBodyFunc(fmt.Sprintf("parse_t%d", t), p.ParseBlocks, bodyOpts{
			coldFrac: p.ColdFrac / 2,
		})
	}

	// The shared engine and its per-(type, slot) fragments: cold
	// type-specific code reachable only through hot shared blocks, so the
	// only accurate predictor of a fragment miss is the request-type
	// context — the structure behind §II-C's coverage/accuracy dilemma.
	engineEntry := -1
	if p.EngineSlots > 0 {
		fragments := make([][]int32, p.EngineSlots)
		for k := 0; k < p.EngineSlots; k++ {
			fragments[k] = make([]int32, p.NumTypes)
			for t := 0; t < p.NumTypes; t++ {
				nseg := b.r.IntBetween(max(1, p.FragmentBlocks-1), p.FragmentBlocks+1)
				fragments[k][t] = int32(b.genBodyFunc(
					fmt.Sprintf("fragment_t%d_s%d", t, k), nseg, bodyOpts{coldFrac: -1, loopFrac: -1}))
			}
		}
		engineEntry = b.genEngine(fragments)
	}

	handlerEntry := make([]int, p.NumTypes)
	for t := 0; t < p.NumTypes; t++ {
		handlerEntry[t] = b.genHandler(t, helpers, engineEntry)
	}

	recv := b.genBodyFunc("recv", p.RecvBlocks, bodyOpts{})
	parseRouter := b.genRouter("parse_router", parseFns)
	// middle is kept loop- and cold-free so the cycle distance between the
	// parse-time type signal and the handler miss is stable; that distance
	// is what the 27–200-cycle prefetch window of §II-B lands in.
	middle := b.genBodyFunc("middle", p.MiddleBlocks, bodyOpts{bigBlocks: true})
	dispatchRouter := b.genRouter("dispatch_router", handlerEntry)
	logFn := b.genBodyFunc("logreq", p.LogBlocks, bodyOpts{})

	entry := b.genDriver([]int{recv, parseRouter, middle, dispatchRouter, logFn})

	b.prog.Layout()
	w := &Workload{
		Name:            p.Name,
		Prog:            b.prog,
		Flow:            b.flow,
		Entry:           entry,
		NumTypes:        p.NumTypes,
		Params:          p,
		HandlerEntry:    handlerEntry,
		IndirectTargets: b.indirect,
	}
	if err := w.Validate(); err != nil {
		panic("workload: generator produced invalid program: " + err.Error())
	}
	return w
}

// builder accumulates program and flow state during generation.
type builder struct {
	p        *Params
	r        *rng.Rand
	prog     *isa.Program
	flow     []BlockInfo
	indirect map[int32][]int32
}

// newFunc opens a new function and returns its index.
func (b *builder) newFunc(name string) int {
	b.prog.Funcs = append(b.prog.Funcs, isa.Func{Name: name, Align: isa.LineSize})
	return len(b.prog.Funcs) - 1
}

// newBlock appends an empty block to function fi and returns its ID.
func (b *builder) newBlock(fi int) int {
	id := len(b.prog.Blocks)
	b.prog.Blocks = append(b.prog.Blocks, isa.Block{ID: id, Func: fi})
	b.prog.Funcs[fi].Blocks = append(b.prog.Funcs[fi].Blocks, id)
	b.flow = append(b.flow, BlockInfo{Succ: [2]int32{-1, -1}, CallEntry: -1})
	return id
}

// fillBody gives block id n non-terminator instructions with an x86-like
// size and kind mix. Every block is filled once and then terminated, so the
// slice is allocated at its final length: the body plus the terminator term
// appends.
func (b *builder) fillBody(id, n int) {
	blk := &b.prog.Blocks[id]
	blk.Instrs = make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		roll := b.r.Float64()
		var in isa.Instr
		switch {
		case roll < 0.55:
			in = isa.NewInstr(isa.KindALU, b.r.IntBetween(2, 5))
		case roll < 0.78:
			in = isa.NewInstr(isa.KindLoad, b.r.IntBetween(3, 7))
		case roll < 0.90:
			in = isa.NewInstr(isa.KindStore, b.r.IntBetween(3, 7))
		default:
			in = isa.NewInstr(isa.KindALU, b.r.IntBetween(1, 3))
		}
		blk.Instrs = append(blk.Instrs, in)
	}
}

// Terminator encodings: conditional branch 2B (short jcc), jump/call 5B
// (rel32), ret 1B.
func (b *builder) term(id int, kind isa.Kind) {
	size := 2
	switch kind {
	case isa.KindJump, isa.KindCall:
		size = 5
	case isa.KindRet:
		size = 1
	}
	blk := &b.prog.Blocks[id]
	blk.Instrs = append(blk.Instrs, isa.NewInstr(kind, size))
}

// bodyInstrs samples a body length around the preset mean.
func (b *builder) bodyInstrs(scale float64) int {
	mean := float64(b.p.BlockInstrs) * scale
	lo := int(mean * 0.6)
	if lo < 1 {
		lo = 1
	}
	hi := int(mean * 1.4)
	if hi < lo {
		hi = lo
	}
	return b.r.IntBetween(lo, hi)
}

// bodyOpts tunes genBodyFunc/genSegments.
type bodyOpts struct {
	coldFrac  float64 // -1 disables; 0 means "use preset"
	loopFrac  float64
	bigBlocks bool  // double block size (middle, verilator-style code)
	calls     []int // entry blocks to call, one call segment each, spread out
}

// genBodyFunc generates a leaf-ish function of nseg body segments and
// returns its entry block ID.
func (b *builder) genBodyFunc(name string, nseg int, o bodyOpts) int {
	fi := b.newFunc(name)
	return b.genSegments(fi, nseg, o)
}

// genSegments emits nseg segments into function fi, chains them, appends a
// return block, and returns the first block's ID.
//
// Segment shapes:
//
//	plain:        [body]───────────────▶ next
//	cold diamond: [cond]─taken(p≈6%)──▶[cold]──▶ next   (cold laid inline,
//	               └─────fallthrough────────────▶ next    creating the
//	                                                      non-contiguous miss
//	                                                      patterns of §II-D)
//	loop:         [body]─back(p)─▶ self, else ▶ next
//	call:         [body+call]──▶ next (on return)
func (b *builder) genSegments(fi, nseg int, o bodyOpts) int {
	coldFrac := b.p.ColdFrac
	if o.coldFrac != 0 {
		coldFrac = o.coldFrac
	}
	if o.coldFrac < 0 {
		coldFrac = 0
	}
	loopFrac := b.p.LoopFrac
	if o.loopFrac != 0 {
		loopFrac = o.loopFrac
	}
	if o.loopFrac < 0 {
		loopFrac = 0
	}
	scale := 1.0
	if o.bigBlocks {
		scale = 2.0
	}

	if nseg < len(o.calls)+1 {
		nseg = len(o.calls) + 1
	}
	// Positions (segment indices) at which call segments are emitted.
	callAt := make(map[int]int) // segment index → callee entry
	for ci, callee := range o.calls {
		pos := 1 + (ci*nseg)/max(len(o.calls)+1, 2)
		if pos >= nseg {
			pos = nseg - 1
		}
		for {
			if _, taken := callAt[pos]; !taken {
				break
			}
			pos = (pos + 1) % nseg
		}
		callAt[pos] = callee
	}

	entry := -1
	// pending collects (blockID, succSlot) pairs to patch to the next
	// segment's first block.
	type patch struct {
		block int
		slot  int
	}
	var pending []patch
	link := func(first int) {
		if entry == -1 {
			entry = first
		}
		for _, pt := range pending {
			b.flow[pt.block].Succ[pt.slot] = int32(first)
		}
		pending = pending[:0]
	}

	for s := 0; s < nseg; s++ {
		if callee, ok := callAt[s]; ok {
			id := b.newBlock(fi)
			b.fillBody(id, b.bodyInstrs(scale*0.5))
			b.term(id, isa.KindCall)
			b.flow[id].Kind = FlowCall
			b.flow[id].CallEntry = int32(callee)
			link(id)
			pending = append(pending, patch{id, 0})
			continue
		}
		roll := b.r.Float64()
		switch {
		case roll < coldFrac:
			cond := b.newBlock(fi)
			b.fillBody(cond, b.bodyInstrs(scale*0.7))
			b.term(cond, isa.KindBranch)
			cold := b.newBlock(fi)
			b.fillBody(cold, b.bodyInstrs(scale*1.2))
			b.term(cold, isa.KindJump)
			b.flow[cond].Kind = FlowCond
			b.flow[cond].TakenProb = float32(b.p.ColdTakenProb)
			b.flow[cond].Succ[0] = int32(cold) // taken → cold side
			b.flow[cold].Kind = FlowJump
			link(cond)
			pending = append(pending, patch{cond, 1}, patch{cold, 0})
		case roll < coldFrac+loopFrac:
			id := b.newBlock(fi)
			b.fillBody(id, b.bodyInstrs(scale))
			b.term(id, isa.KindBranch)
			b.flow[id].Kind = FlowCond
			b.flow[id].TakenProb = float32(b.p.LoopBackProb)
			b.flow[id].Succ[0] = int32(id) // back edge
			link(id)
			pending = append(pending, patch{id, 1})
		default:
			id := b.newBlock(fi)
			b.fillBody(id, b.bodyInstrs(scale))
			b.term(id, isa.KindBranch)
			b.flow[id].Kind = FlowCond
			// Mostly-fallthrough branch; taken side also goes to the next
			// segment so the CFG has a branch without divergent layout.
			b.flow[id].TakenProb = 0.3
			link(id)
			pending = append(pending, patch{id, 0}, patch{id, 1})
		}
	}

	ret := b.newBlock(fi)
	b.fillBody(ret, b.bodyInstrs(scale*0.4))
	b.term(ret, isa.KindRet)
	b.flow[ret].Kind = FlowRet
	link(ret)
	return entry
}

// genEngine emits the shared engine: EngineSlots gated indirect-dispatch
// slots separated by EngineBlocks shared body segments. fragments[k][t] is
// the entry block of type t's fragment for slot k. Returns the entry block.
func (b *builder) genEngine(fragments [][]int32) int {
	fi := b.newFunc("engine")
	if b.indirect == nil {
		b.indirect = make(map[int32][]int32)
	}
	entry := -1
	var prev int // block whose Succ[0] awaits the next block
	link := func(id int) {
		if entry == -1 {
			entry = id
		} else {
			b.flow[prev].Succ[0] = int32(id)
		}
	}
	body := func(scale float64) int {
		id := b.newBlock(fi)
		b.fillBody(id, b.bodyInstrs(scale))
		b.term(id, isa.KindBranch)
		b.flow[id].Kind = FlowFall
		return id
	}
	for k := range fragments {
		for s := 0; s < b.p.EngineBlocks; s++ {
			id := body(1.4)
			link(id)
			prev = id
		}
		// Gate: fire the slot with probability EngineSlotProb.
		gate := b.newBlock(fi)
		b.fillBody(gate, b.bodyInstrs(0.5))
		b.term(gate, isa.KindBranch)
		b.flow[gate].Kind = FlowCond
		b.flow[gate].TakenProb = float32(b.p.EngineSlotProb)
		link(gate)

		icall := b.newBlock(fi)
		b.fillBody(icall, b.bodyInstrs(0.3))
		b.term(icall, isa.KindCall)
		b.flow[icall].Kind = FlowIndirectCall
		b.indirect[int32(icall)] = append([]int32(nil), fragments[k]...)

		join := body(0.4)
		b.flow[gate].Succ[0] = int32(icall) // taken → dispatch the slot
		b.flow[gate].Succ[1] = int32(join)
		b.flow[icall].Succ[0] = int32(join)
		prev = join
	}
	ret := b.newBlock(fi)
	b.fillBody(ret, b.bodyInstrs(0.4))
	b.term(ret, isa.KindRet)
	b.flow[ret].Kind = FlowRet
	link(ret)
	return entry
}

// genHandler emits the handler chain for request type t: HandlerFuncs
// functions f0→f1→…, each calling the next mid-body and occasionally a
// shared helper; f0 additionally drives the shared engine (engineEntry ≥ 0).
// Returns f0's entry block.
func (b *builder) genHandler(t int, helpers []int, engineEntry int) int {
	nf := b.p.HandlerFuncs
	// Per-type size jitter so handlers differ (±25%).
	jitter := 0.75 + b.r.Float64()*0.5
	next := -1
	for i := nf - 1; i >= 0; i-- {
		var calls []int
		if i == 0 && engineEntry >= 0 {
			calls = append(calls, engineEntry)
		}
		if next != -1 {
			calls = append(calls, next)
		}
		if len(helpers) > 0 && b.r.Bool(b.p.HelperCallFrac*2) {
			calls = append(calls, helpers[b.r.Intn(len(helpers))])
		}
		nseg := int(float64(b.p.HandlerBlocks) * jitter * (0.8 + b.r.Float64()*0.4))
		if nseg < 2 {
			nseg = 2
		}
		next = b.genBodyFunc(fmt.Sprintf("handler_t%d_f%d", t, i), nseg, bodyOpts{calls: calls})
	}
	return next
}

// genRouter emits a two-level dispatch tree over targets: group blocks test
// type/groupSize, leaf blocks test exact type and call the target. Depth
// stays ≤ ~2·sqrt(len(targets)) blocks so the request-type signal set by
// parse is still within the 32-entry LBR when the handler is reached.
func (b *builder) genRouter(name string, targets []int) int {
	fi := b.newFunc(name)
	n := len(targets)
	gsz := 1
	for gsz*gsz < n {
		gsz++
	}
	ngroups := (n + gsz - 1) / gsz

	entry := b.newBlock(fi)
	b.fillBody(entry, b.bodyInstrs(0.6))
	b.term(entry, isa.KindBranch)
	b.flow[entry].Kind = FlowFall

	ret := -1 // created at the end; patched below
	type patch struct{ block, slot int }
	var toJoin []patch

	prevElse := patch{entry, 0}
	for g := 0; g < ngroups; g++ {
		gb := b.newBlock(fi)
		b.fillBody(gb, b.bodyInstrs(0.4))
		b.term(gb, isa.KindBranch)
		b.flow[gb].Kind = FlowDispatch
		b.flow[gb].MatchVal = int32(g)
		b.flow[gb].CallEntry = -1
		// MatchDiv semantics are encoded via MatchVal sign: group blocks
		// match reqType/gsz == MatchVal. We store gsz in TakenProb's slot?
		// No — see Executor: group blocks are identified by a dedicated
		// kind below.
		b.flow[prevElse.block].Succ[prevElse.slot] = int32(gb)

		// Leaf chain for the group's types.
		prevLeafElse := patch{gb, 0}
		for t := g * gsz; t < (g+1)*gsz && t < n; t++ {
			leaf := b.newBlock(fi)
			b.fillBody(leaf, b.bodyInstrs(0.4))
			b.term(leaf, isa.KindBranch)
			b.flow[leaf].Kind = FlowDispatch
			b.flow[leaf].MatchVal = int32(t)
			call := b.newBlock(fi)
			b.fillBody(call, b.bodyInstrs(0.3))
			b.term(call, isa.KindCall)
			b.flow[call].Kind = FlowCall
			b.flow[call].CallEntry = int32(targets[t])
			toJoin = append(toJoin, patch{call, 0})

			b.flow[prevLeafElse.block].Succ[prevLeafElse.slot] = int32(leaf)
			b.flow[leaf].Succ[0] = int32(call)
			prevLeafElse = patch{leaf, 1}
		}
		// Last leaf's else is unreachable for in-range types; route to join.
		toJoin = append(toJoin, prevLeafElse)
		prevElse = patch{gb, 1}
	}
	// Group chain: gb's taken edge points at its leaf chain; its else edge
	// points at the next group. The group test itself (type∈group) is
	// resolved by the executor from the leaf structure: we mark group
	// blocks by MatchVal with a division encoded in groupDiv.
	b.setGroupDiv(fi, gsz)

	// Last group's else is unreachable; route to join.
	toJoin = append(toJoin, prevElse)

	ret = b.newBlock(fi)
	b.fillBody(ret, b.bodyInstrs(0.3))
	b.term(ret, isa.KindRet)
	b.flow[ret].Kind = FlowRet
	for _, pt := range toJoin {
		b.flow[pt.block].Succ[pt.slot] = int32(ret)
	}
	return entry
}

// groupDiv records, per router function, the divisor group-dispatch blocks
// use. Encoded on BlockInfo via the CallEntry field of dispatch blocks that
// have no call: CallEntry = -(div+1) marks "group" semantics.
func (b *builder) setGroupDiv(fi, div int) {
	for _, bid := range b.prog.Funcs[fi].Blocks {
		f := &b.flow[bid]
		if f.Kind == FlowDispatch && f.CallEntry == -1 && b.isGroupBlock(bid) {
			f.CallEntry = int32(-(div + 1))
		}
	}
}

// isGroupBlock distinguishes group-level dispatch blocks from leaf dispatch
// blocks: a leaf's taken edge goes to a FlowCall block; a group's goes to
// another dispatch block.
func (b *builder) isGroupBlock(bid int) bool {
	succ := b.flow[bid].Succ[0]
	return succ >= 0 && b.flow[succ].Kind == FlowDispatch
}

// GroupDiv decodes the group divisor from a dispatch block's BlockInfo
// (0 means "exact-match leaf").
func (f *BlockInfo) GroupDiv() int {
	if f.Kind == FlowDispatch && f.CallEntry < -1 {
		return int(-f.CallEntry) - 1
	}
	return 0
}

// genDriver emits the per-request driver: entry body, one call block per
// stage, and an end-of-request block looping back to the entry.
func (b *builder) genDriver(stages []int) int {
	fi := b.newFunc("driver")
	entry := b.newBlock(fi)
	b.fillBody(entry, b.bodyInstrs(0.6))
	b.term(entry, isa.KindBranch)
	b.flow[entry].Kind = FlowFall

	prev := entry
	for _, st := range stages {
		id := b.newBlock(fi)
		b.fillBody(id, b.bodyInstrs(0.3))
		b.term(id, isa.KindCall)
		b.flow[id].Kind = FlowCall
		b.flow[id].CallEntry = int32(st)
		b.flow[prev].Succ[0] = int32(id)
		prev = id
	}
	end := b.newBlock(fi)
	b.fillBody(end, b.bodyInstrs(0.3))
	b.term(end, isa.KindJump)
	b.flow[end].Kind = FlowEndRequest
	b.flow[end].Succ[0] = int32(entry)
	b.flow[prev].Succ[0] = int32(end)
	return entry
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
