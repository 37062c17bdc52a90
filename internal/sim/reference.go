// Reference kernel: the pre-optimization simulator loop, kept as the golden
// model the fast path (Run) is verified against. It deliberately recomputes
// everything per dynamic block — the line span via Block.Size, the prefetch
// set by walking the instruction list, coalesced payloads at execution time
// — pulls blocks one at a time through the BlockSource interface, runs on
// the preserved pre-optimization cache implementation (cache.RefHierarchy),
// and consults the hardware-prefetch window mask through a per-line map
// lookup, exactly as the original kernel did. Golden-equivalence tests
// require Run and RunReference to produce bit-identical Stats (cycles,
// every stall accounting, per-level cache counters) on seeded workloads;
// see DESIGN.md §9 for why the invariant is load-bearing. Do not "optimize"
// this file: its slowness is its purpose — it is both the correctness
// oracle and the baseline that the bench's sim.fastpath_ratio is
// measured against.
package sim

import (
	"ispy/internal/cache"
	"ispy/internal/isa"
	"ispy/internal/lbr"
)

// RunReference executes the program's dynamic stream from src under cfg
// with the reference (unoptimized) kernel and returns the statistics. It
// accepts the same sources and hooks as Run and must agree with it exactly;
// it exists for golden-equivalence testing and as the baseline the
// benchmark suite reports the fast path's speedup against.
func RunReference(prog *isa.Program, src BlockSource, cfg Config, hooks *Hooks) *Stats {
	cfg.setDefaults()
	m := newRefMachine(prog, cfg, hooks)
	if cfg.WarmupInstrs > 0 {
		m.run(src, cfg.WarmupInstrs)
		m.resetStats()
	}
	m.run(src, cfg.MaxInstrs)
	m.finish()
	return &m.stats
}

// refMachine mirrors machine but executes blocks the pre-optimization way.
type refMachine struct {
	prog   *isa.Program
	cfg    Config
	hooks  Hooks
	hier   *cache.RefHierarchy
	lbr    *lbr.LBR
	hwMask map[isa.Addr]uint64 // seed-era form of cfg.HWPrefetchMask
	stats  Stats

	cycleF     float64
	totalInstr uint64
	cycleStart float64
	issueF     float64
	backendF   float64
	stallF     float64
	fullStallF float64
	lineBuf    []isa.Addr
	measured   bool
}

func newRefMachine(prog *isa.Program, cfg Config, hooks *Hooks) *refMachine {
	m := &refMachine{
		prog:     prog,
		cfg:      cfg,
		hier:     cache.NewRefHierarchy(cfg.Hier),
		lbr:      lbr.New(cfg.HashBits),
		measured: cfg.WarmupInstrs == 0,
	}
	// The original kernel consulted the window mask as a map per missed
	// line; rebuild that form so the hot path pays the same lookup.
	// AsMap is the one sanctioned adapter from the fast-path mask representation.
	m.hwMask = cfg.HWPrefetchMask.AsMap()
	if hooks != nil {
		m.hooks = *hooks
	}
	return m
}

func (m *refMachine) resetStats() {
	m.stats = Stats{}
	m.hier.L1I().Stats = cache.Stats{}
	m.hier.L2().Stats = cache.Stats{}
	m.hier.L3().Stats = cache.Stats{}
	m.cycleStart = m.cycleF
	m.issueF, m.backendF, m.stallF, m.fullStallF = 0, 0, 0, 0
	m.measured = true
}

func (m *refMachine) now() uint64 { return uint64(m.cycleF) }

func (m *refMachine) run(src BlockSource, baseBudget uint64) {
	tr, hasTaken := src.(TakenReporter)
	target := m.stats.BaseInstrs + baseBudget
	for m.stats.BaseInstrs < target {
		bid := src.Next()
		m.execBlock(bid, !hasTaken || tr.LastWasTaken())
	}
}

func (m *refMachine) execBlock(bid int, taken bool) {
	blk := &m.prog.Blocks[bid]
	m.stats.Blocks++
	if taken {
		m.lbr.Push(int32(bid), blk.Addr, m.now(), m.totalInstr)
	}
	if m.hooks.OnBlock != nil && m.measured {
		m.hooks.OnBlock(bid, m.now(), m.lbr)
	}

	// Demand-fetch the block's instruction lines.
	if !m.cfg.Ideal {
		last := blk.LastLine()
		for line := blk.FirstLine(); line <= last; line += isa.LineSize {
			r := m.hier.FetchI(line, m.now())
			m.stats.LineFetches++
			if r.Miss {
				m.stats.L1IMisses++
				m.fullStallF += float64(r.Stall)
				scaled := float64(r.Stall) * m.cfg.StallScale
				m.cycleF += scaled
				m.stallF += scaled
				if m.hooks.OnMiss != nil && m.measured {
					m.hooks.OnMiss(bid, int32(int64(line)-int64(blk.Addr)), m.now(), m.lbr)
				}
				if m.cfg.HWPrefetchWindow > 0 {
					m.hwPrefetch(line)
				}
			} else if r.Stall > 0 {
				// Late prefetch: wait out the remaining latency.
				m.stats.LateWaits++
				m.fullStallF += float64(r.Stall)
				scaled := float64(r.Stall) * m.cfg.StallScale
				m.cycleF += scaled
				m.stallF += scaled
			}
		}
	} else {
		m.stats.LineFetches += uint64(blk.Lines())
	}

	// Execute instructions: prefetches act on the hierarchy; everything
	// else is charged in aggregate below.
	nInstrs := len(blk.Instrs)
	nPrefetch := 0
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if !in.Kind.IsPrefetch() {
			continue
		}
		nPrefetch++
		m.execPrefetch(in)
	}

	m.stats.Instrs += uint64(nInstrs)
	m.totalInstr += uint64(nInstrs)
	m.stats.BaseInstrs += uint64(nInstrs - nPrefetch)
	m.stats.DynPrefetchInstrs += uint64(nPrefetch)

	issue := float64(nInstrs-nPrefetch) / float64(m.cfg.Width)
	backend := float64(nInstrs-nPrefetch) * m.cfg.BackendCPI
	m.cycleF += issue + backend
	m.issueF += issue
	m.backendF += backend
}

func (m *refMachine) execPrefetch(in *isa.Instr) {
	if in.Kind.IsConditional() {
		m.stats.CondExecuted++
		if !m.lbr.Match(in.CtxHash) {
			m.stats.CondSuppressed++
			return
		}
		m.stats.CondFired++
		if len(in.CtxAddrs) > 0 && !m.lbr.ContainsAll(in.CtxAddrs) {
			m.stats.CondFalseFires++
		}
	}
	m.lineBuf = in.CoalescedLines(m.lineBuf[:0])
	for _, line := range m.lineBuf {
		r := m.hier.PrefetchI(line, m.now())
		m.stats.PrefetchLinesIssued++
		if !r.Resident {
			m.cycleF += m.cfg.PrefetchLineCost
			m.backendF += m.cfg.PrefetchLineCost
		}
	}
}

func (m *refMachine) hwPrefetch(line isa.Addr) {
	var mask uint64 = ^uint64(0)
	if m.hwMask != nil {
		mask = m.hwMask[line]
	}
	for i := 1; i <= m.cfg.HWPrefetchWindow; i++ {
		if mask&(1<<(i-1)) == 0 {
			continue
		}
		r := m.hier.PrefetchI(line+isa.Addr(i)*isa.LineSize, m.now())
		m.stats.PrefetchLinesIssued++
		if !r.Resident {
			m.cycleF += m.cfg.PrefetchLineCost
			m.backendF += m.cfg.PrefetchLineCost
		}
	}
}

func (m *refMachine) finish() {
	m.hier.Finish()
	m.stats.L1I = m.hier.L1I().Stats
	m.stats.L2 = m.hier.L2().Stats
	m.stats.L3 = m.hier.L3().Stats
	m.stats.Cycles = uint64(m.cycleF - m.cycleStart)
	m.stats.IssueCycles = uint64(m.issueF)
	m.stats.BackendCycles = uint64(m.backendF)
	m.stats.StallCycles = uint64(m.stallF)
	m.stats.FullStallCycles = uint64(m.fullStallF)
}
