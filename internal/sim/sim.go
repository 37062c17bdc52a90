// Package sim is the trace-driven timing simulator the reproduction's
// evaluation runs on — the stand-in for the paper's modified ZSim (§V).
//
// The core model is fetch-driven: for every executed basic block the
// simulator (1) pushes the block into the 32-entry LBR, (2) demand-fetches
// every instruction line the block covers through the Table I hierarchy,
// charging a frontend stall for the unhidden part of each miss, (3) executes
// any injected code-prefetch instructions — applying the Bloom-filter
// subset test for conditional kinds and the bit-vector expansion for
// coalesced kinds — and (4) charges issue-width and backend-CPI cycles for
// the block's instructions.
//
// Two stall accountings are kept:
//
//   - Performance stalls (StallScale × serve latency) drive Cycles and every
//     speedup number. The scale models the miss latency an OOO frontend
//     with fetch-ahead cannot hide.
//   - Full stalls (unscaled latency, plus exposed fetch latency) drive the
//     Top-down-style "frontend-bound" fraction of Fig. 1, which on real
//     hardware includes latency the performance model considers hidden.
package sim

import (
	"fmt"
	"runtime"
	"sync"

	"ispy/internal/cache"
	"ispy/internal/isa"
	"ispy/internal/lbr"
)

// BlockSource yields the dynamic basic-block stream (workload.Executor
// implements it).
type BlockSource interface {
	// Next returns the ID of the next basic block to execute.
	Next() int
}

// TakenReporter is an optional BlockSource extension: sources that know how
// control reached each block report it so the simulator records only
// taken-branch targets in the LBR, as real hardware does. Sources without it
// get every block recorded.
type TakenReporter interface {
	// LastWasTaken refers to the block most recently returned by Next.
	LastWasTaken() bool
}

// BatchSource is an optional BlockSource extension that devirtualizes the
// hot loop: the simulator pulls blocks in batches, paying one interface
// dispatch per batch instead of two (Next + LastWasTaken) per block.
// workload.Executor implements it; the batch must be exactly the sequence
// repeated Next/LastWasTaken calls would have produced.
type BatchSource interface {
	BlockSource
	// NextN fills ids and taken (which have equal length) with the next
	// blocks of the stream and how control reached each, returning the
	// count filled. It must fill the full slice (the stream is unbounded).
	NextN(ids []int32, taken []bool) int
}

// Config parameterizes one simulation run.
type Config struct {
	// Hier is the cache hierarchy (defaults to Table I).
	Hier cache.HierarchyConfig
	// Width is the issue width in instructions per cycle.
	Width int
	// BackendCPI is extra backend cycles charged per instruction (data
	// stalls, dependencies); per-application, from the workload preset.
	BackendCPI float64
	// StallScale is the fraction of a miss's serve latency that stalls the
	// pipeline (the rest is hidden by fetch-ahead/OOO).
	StallScale float64
	// PrefetchLineCost is the cycles charged per prefetched line actually
	// sent to the hierarchy (L2-port/MSHR occupancy). Suppressed
	// conditional prefetches and already-resident targets cost nothing;
	// unconditional spray pays in full.
	PrefetchLineCost float64
	// HashBits is the context/runtime hash width (default 16, §III-A).
	HashBits int
	// MaxInstrs is the number of *workload* (non-prefetch) instructions to
	// execute; all variants of a program retire the same workload
	// instruction count, so cycle ratios are speedups.
	MaxInstrs uint64
	// WarmupInstrs are executed before statistics collection begins (caches
	// stay warm, counters reset).
	WarmupInstrs uint64
	// Ideal makes every instruction fetch hit in the L1I (the paper's
	// no-miss upper bound).
	Ideal bool

	// HWPrefetchWindow enables the miss-triggered hardware window
	// prefetcher of §II-D: on every demand L1I miss of line L, lines
	// L+1 … L+Window are prefetched. 0 disables; 1 is a next-line
	// prefetcher; 8 with a nil mask is the paper's Contiguous-8.
	HWPrefetchWindow int
	// HWPrefetchMask restricts the window prefetcher to profiled miss
	// lines: bit i−1 of the mask for line L gates the prefetch of L+i
	// (the paper's Non-contiguous-8). Nil prefetches the whole window.
	// Build one from a map with NewLineMask; it is consulted on every
	// demand L1I miss, so it is a flat sorted table rather than a map.
	HWPrefetchMask *LineMask
}

// Default returns the evaluation configuration: Table I hierarchy, 4-wide
// issue, 16-bit hash, 0.75 stall scale, 1.5 M measured instructions after
// 300 k warmup.
func Default() Config {
	return Config{
		Hier:             cache.TableI(),
		Width:            4,
		BackendCPI:       0.5,
		StallScale:       0.75,
		PrefetchLineCost: 0.15,
		HashBits:         16,
		MaxInstrs:        1_500_000,
		WarmupInstrs:     300_000,
	}
}

// WithWorkloadCPI returns cfg with the backend CPI a workload preset
// specifies.
func (c Config) WithWorkloadCPI(backendCPI float64) Config {
	if backendCPI > 0 {
		c.BackendCPI = backendCPI
	}
	return c
}

func (c *Config) setDefaults() {
	d := Default()
	if c.Hier.L1I.SizeBytes == 0 {
		c.Hier = d.Hier
	}
	if c.Width == 0 {
		c.Width = d.Width
	}
	if c.BackendCPI == 0 {
		c.BackendCPI = d.BackendCPI
	}
	if c.StallScale == 0 {
		c.StallScale = d.StallScale
	}
	if c.HashBits == 0 {
		c.HashBits = d.HashBits
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = d.MaxInstrs
	}
}

// Stats aggregates one run's counters.
type Stats struct {
	// Instrs counts all retired instructions including injected prefetches;
	// BaseInstrs counts only workload instructions.
	Instrs     uint64
	BaseInstrs uint64
	// Blocks counts executed basic blocks; Requests is filled by callers
	// that know the source.
	Blocks uint64

	// Cycles is total time; IssueCycles/BackendCycles/StallCycles partition
	// it (up to rounding).
	Cycles        uint64
	IssueCycles   uint64
	BackendCycles uint64
	StallCycles   uint64
	// FullStallCycles is the unscaled (Top-down-style) frontend stall
	// accounting used by Fig. 1; it is not part of Cycles.
	FullStallCycles uint64

	// LineFetches and L1IMisses count demand instruction-line fetches.
	LineFetches uint64
	L1IMisses   uint64
	// LateWaits counts fetches that hit in-flight (late-prefetched) lines.
	LateWaits uint64

	// DynPrefetchInstrs counts executed prefetch instructions (of any kind);
	// PrefetchLinesIssued counts line prefetches sent to the hierarchy
	// (coalesced instructions issue several per instruction).
	DynPrefetchInstrs   uint64
	PrefetchLinesIssued uint64
	// CondExecuted/CondFired/CondSuppressed count conditional prefetches;
	// CondFalseFires counts fires whose context blocks were *not* all in
	// the LBR (hash aliasing — Fig. 21's false positives).
	CondExecuted   uint64
	CondFired      uint64
	CondSuppressed uint64
	CondFalseFires uint64

	// L1I / L2 / L3 are the per-level cache counters at end of run.
	L1I, L2, L3 cache.Stats
}

// MPKI returns L1 I-cache misses per kilo workload instruction.
func (s *Stats) MPKI() float64 {
	if s.BaseInstrs == 0 {
		return 0
	}
	return float64(s.L1IMisses) / float64(s.BaseInstrs) * 1000
}

// IPC returns retired workload instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BaseInstrs) / float64(s.Cycles)
}

// FrontendBoundFrac is the Fig. 1 metric: the fraction of pipeline time the
// frontend leaves unfilled under full-latency accounting.
func (s *Stats) FrontendBoundFrac() float64 {
	denom := float64(s.IssueCycles + s.BackendCycles + s.FullStallCycles)
	if denom == 0 {
		return 0
	}
	return float64(s.FullStallCycles) / denom
}

// PrefetchAccuracy is useful prefetched lines / all prefetched lines whose
// fate is known (Fig. 13's metric).
func (s *Stats) PrefetchAccuracy() float64 {
	denom := float64(s.L1I.PrefetchUseful + s.L1I.PrefetchUseless)
	if denom == 0 {
		return 0
	}
	return float64(s.L1I.PrefetchUseful) / denom
}

// DynFootprintIncrease is the dynamic-instruction overhead of injected
// prefetches (Figs. 4 and 15): executed prefetch instructions relative to
// workload instructions.
func (s *Stats) DynFootprintIncrease() float64 {
	if s.BaseInstrs == 0 {
		return 0
	}
	return float64(s.DynPrefetchInstrs) / float64(s.BaseInstrs)
}

// CondFalsePositiveRate is false fires / fires (Fig. 21).
func (s *Stats) CondFalsePositiveRate() float64 {
	if s.CondFired == 0 {
		return 0
	}
	return float64(s.CondFalseFires) / float64(s.CondFired)
}

// String summarizes the run.
func (s *Stats) String() string {
	return fmt.Sprintf("instrs=%d cycles=%d ipc=%.3f mpki=%.2f febound=%.1f%% pfAcc=%.1f%%",
		s.BaseInstrs, s.Cycles, s.IPC(), s.MPKI(), s.FrontendBoundFrac()*100, s.PrefetchAccuracy()*100)
}

// Hooks let the profiler observe the run. Nil hooks cost nothing.
type Hooks struct {
	// OnMiss fires on every L1I demand miss: the executing block, the
	// missing line's byte offset relative to the block start (possibly
	// negative), the cycle, and the live LBR (read-only).
	OnMiss func(block int, delta int32, cycle uint64, l *lbr.LBR)
	// OnBlock fires at every block entry after the LBR push.
	OnBlock func(block int, cycle uint64, l *lbr.LBR)
}

// Run executes the program's dynamic stream from src under cfg and returns
// the statistics. prog must be laid out (Program.Layout).
//
// Run is the fast-path kernel: it precomputes per-block fetch plans (see
// plan.go) and pulls blocks in batches when src implements BatchSource. It
// is pinned to produce bit-identical statistics to RunReference; the golden
// equivalence tests enforce that on every app preset.
func Run(prog *isa.Program, src BlockSource, cfg Config, hooks *Hooks) *Stats {
	cfg.setDefaults()
	m := newMachine(prog, cfg, hooks)
	if cfg.WarmupInstrs > 0 {
		m.run(src, cfg.WarmupInstrs)
		m.resetStats()
	}
	m.run(src, cfg.MaxInstrs)
	m.finish()
	releaseHierarchy(m.hier)
	m.hier = nil // the returned Stats keeps m reachable, and a hierarchy the capped free list dropped must not stay with it
	return &m.stats
}

// batchBlocks is the number of blocks pulled per BatchSource.NextN call.
// Big enough to amortize the interface dispatch to nothing, small enough
// that the id/taken buffers stay in L1.
const batchBlocks = 256

// machine is the mutable simulation state; exported entry points wrap it.
type machine struct {
	prog  *isa.Program
	cfg   Config
	hooks Hooks
	hier  *cache.Hierarchy
	lbr   *lbr.LBR
	stats Stats
	plans []blockPlan

	cycleF     float64 // running cycle count (fractional issue costs)
	totalInstr uint64  // monotonic retired-instruction counter (never reset)
	cycleStart float64 // cycleF at the start of the measured region
	issueF     float64
	backendF   float64
	stallF     float64
	fullStallF float64
	measured   bool

	// Batch state persists across run calls so blocks pulled into a batch
	// during warmup but not yet executed carry over into the measured
	// region instead of being dropped (which would shift the stream
	// relative to the reference kernel).
	batchIDs   []int32
	batchTaken []bool
	batchPos   int
	batchLen   int
}

//ispy:alloc one-time machine construction; hierarchy, LBR, and fetch plans are built before the measured region
func newMachine(prog *isa.Program, cfg Config, hooks *Hooks) *machine {
	m := &machine{
		prog:     prog,
		cfg:      cfg,
		hier:     acquireHierarchy(cfg.Hier),
		lbr:      lbr.New(cfg.HashBits),
		plans:    buildPlans(prog, &cfg),
		measured: cfg.WarmupInstrs == 0,
	}
	if hooks != nil {
		m.hooks = *hooks
	}
	return m
}

// idle holds the hierarchies of finished runs, by configuration, for later
// runs to reuse. A Table I hierarchy is 5.8 MB, mostly the L3's arrays, of
// which a run touches a few percent; a recycled one is reset in O(1)
// (cache.Cache.Reset) and is indistinguishable from a fresh one. A run that
// panics never returns its hierarchy, so a half-updated one is dropped.
var idle struct {
	sync.Mutex
	byCfg map[cache.HierarchyConfig][]*cache.Hierarchy
}

// acquireHierarchy returns a cold hierarchy for cfg: an idle one if any,
// else a new one.
func acquireHierarchy(cfg cache.HierarchyConfig) *cache.Hierarchy {
	idle.Lock()
	free := idle.byCfg[cfg]
	if n := len(free); n > 0 {
		h := free[n-1]
		idle.byCfg[cfg] = free[:n-1]
		idle.Unlock()
		h.Reset()
		return h
	}
	idle.Unlock()
	return cache.NewHierarchy(cfg)
}

// releaseHierarchy hands the hierarchy of a finished run back for reuse.
// At most GOMAXPROCS idle hierarchies are kept per configuration, about as
// many as can run at once: ispyd admits any number of requests, and an
// uncapped list would keep the memory of its largest burst for good.
//
//ispy:alloc once per run, after the measured region: a mutex and a free-list append
func releaseHierarchy(h *cache.Hierarchy) {
	idle.Lock()
	defer idle.Unlock()
	cfg := h.Config()
	if len(idle.byCfg[cfg]) >= runtime.GOMAXPROCS(0) {
		return
	}
	if idle.byCfg == nil {
		idle.byCfg = make(map[cache.HierarchyConfig][]*cache.Hierarchy)
	}
	idle.byCfg[cfg] = append(idle.byCfg[cfg], h)
}

func (m *machine) resetStats() {
	m.stats = Stats{}
	m.hier.L1I().Stats = cache.Stats{}
	m.hier.L2().Stats = cache.Stats{}
	m.hier.L3().Stats = cache.Stats{}
	m.cycleStart = m.cycleF
	m.issueF, m.backendF, m.stallF, m.fullStallF = 0, 0, 0, 0
	m.measured = true
}

func (m *machine) now() uint64 { return uint64(m.cycleF) }

// run executes blocks until baseBudget workload instructions retire.
func (m *machine) run(src BlockSource, baseBudget uint64) {
	target := m.stats.BaseInstrs + baseBudget
	if bs, ok := src.(BatchSource); ok {
		m.runBatched(bs, target)
		return
	}
	tr, hasTaken := src.(TakenReporter)
	for m.stats.BaseInstrs < target {
		bid := src.Next()
		m.execBlock(bid, !hasTaken || tr.LastWasTaken())
	}
}

// runBatched is the devirtualized hot loop: one NextN call per batch, then
// a tight loop over plain slices. Leftover batch entries survive in the
// machine across the warmup/measure boundary.
func (m *machine) runBatched(bs BatchSource, target uint64) {
	if m.batchIDs == nil {
		m.batchIDs = make([]int32, batchBlocks)  //ispy:alloc batch buffer, allocated once on first run
		m.batchTaken = make([]bool, batchBlocks) //ispy:alloc batch buffer, allocated once on first run
	}
	for m.stats.BaseInstrs < target {
		if m.batchPos == m.batchLen {
			m.batchLen = bs.NextN(m.batchIDs, m.batchTaken)
			m.batchPos = 0
			if m.batchLen == 0 {
				// A conforming source never does this (the stream is
				// unbounded); stop rather than spin.
				return
			}
		}
		for m.batchPos < m.batchLen && m.stats.BaseInstrs < target {
			i := m.batchPos
			m.batchPos++
			m.execBlock(int(m.batchIDs[i]), m.batchTaken[i])
		}
	}
}

func (m *machine) execBlock(bid int, taken bool) {
	p := &m.plans[bid]
	m.stats.Blocks++
	if taken {
		m.lbr.Push(int32(bid), p.addr, m.now(), m.totalInstr)
	}
	if m.hooks.OnBlock != nil && m.measured {
		m.hooks.OnBlock(bid, m.now(), m.lbr) //ispy:alloc hook dispatch; hooks are nil in benchmarked runs
	}

	// Demand-fetch the block's instruction lines (span precomputed).
	if !m.cfg.Ideal {
		line := p.firstLine
		for k := int32(0); k < p.nLines; k++ {
			r := m.hier.FetchI(line, m.now())
			m.stats.LineFetches++
			if r.Miss {
				m.stats.L1IMisses++
				m.fullStallF += float64(r.Stall)
				scaled := float64(r.Stall) * m.cfg.StallScale
				m.cycleF += scaled
				m.stallF += scaled
				if m.hooks.OnMiss != nil && m.measured {
					m.hooks.OnMiss(bid, int32(int64(line)-int64(p.addr)), m.now(), m.lbr) //ispy:alloc hook dispatch; hooks are nil in benchmarked runs
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
			line += isa.LineSize
		}
	} else {
		m.stats.LineFetches += uint64(p.nLines)
	}

	// Execute the block's prefetch instructions (payloads pre-expanded);
	// ordinary instructions are charged in aggregate below.
	for i := range p.prefetch {
		m.execPrefetch(&p.prefetch[i])
	}

	m.stats.Instrs += uint64(p.nInstrs)
	m.totalInstr += uint64(p.nInstrs)
	m.stats.BaseInstrs += uint64(p.nBase)
	m.stats.DynPrefetchInstrs += uint64(p.nInstrs - p.nBase)

	// Prefetch instructions issue in the spare slots a frontend-bound
	// 4-wide pipeline has by definition (Fig. 1); their performance cost is
	// modeled where the paper locates it — fetch footprint and cache
	// effects — not in issue bandwidth.
	m.cycleF += p.issue + p.backend
	m.issueF += p.issue
	m.backendF += p.backend
}

func (m *machine) execPrefetch(pp *prefetchPlan) {
	if pp.conditional {
		m.stats.CondExecuted++
		if !m.lbr.Match(pp.ctxHash) {
			m.stats.CondSuppressed++
			return
		}
		m.stats.CondFired++
		if len(pp.ctxAddrs) > 0 && !m.lbr.ContainsAll(pp.ctxAddrs) {
			m.stats.CondFalseFires++
		}
	}
	for _, line := range pp.lines {
		r := m.hier.PrefetchI(line, m.now())
		m.stats.PrefetchLinesIssued++
		if !r.Resident {
			m.cycleF += m.cfg.PrefetchLineCost
			m.backendF += m.cfg.PrefetchLineCost
		}
	}
}

// hwPrefetch implements the miss-triggered window prefetcher: after a
// demand miss of line, prefetch the (masked) following lines.
func (m *machine) hwPrefetch(line isa.Addr) {
	var mask uint64 = ^uint64(0)
	if m.cfg.HWPrefetchMask != nil {
		mask = m.cfg.HWPrefetchMask.Lookup(line)
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

func (m *machine) finish() {
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
