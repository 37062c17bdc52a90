// Options for I-SPY's offline analysis (§III, §IV) with the paper's
// defaults.
package core

// Options parameterizes the offline analysis. Zero values mean "use the
// paper's default" (applied by withDefaults); the sensitivity experiments
// (Figs. 17–21) sweep individual fields.
type Options struct {
	// MinDistCycles / MaxDistCycles bound the prefetch window: an injection
	// site must execute between MinDist and MaxDist cycles before the miss
	// (§II-B; defaults 27 and 200 per §V).
	MinDistCycles uint64
	MaxDistCycles uint64

	// HashBits is the context-hash width (default 16, §VI-B/Fig. 21).
	HashBits int
	// MaxPreds is the maximum number of predictor blocks composing a
	// context (default 4, §VI-B/Fig. 17).
	MaxPreds int
	// CandidatePool is how many top-ranked predictor blocks the combination
	// search draws from, at most 64: discovery keeps one bit per pool block
	// in a uint64. The cap changes nothing in practice. A snapshot holds at
	// most lbr.Depth = 32 blocks and a candidate must appear in MinRecall of
	// the positive snapshots, so at most 32/MinRecall blocks qualify: 35 at
	// the default 0.9, and 64 for any MinRecall ≥ 0.5.
	CandidatePool int

	// CoalesceBits is the coalescing bit-vector width: lines within
	// CoalesceBits lines of a base target can merge into one instruction
	// (default 8, §III-B/Fig. 19).
	CoalesceBits int

	// Conditional / Coalesce enable the two techniques; Fig. 12's ablation
	// turns each off individually.
	Conditional bool
	Coalesce    bool

	// MinMissCount ignores miss lines observed fewer times (noise).
	MinMissCount uint64
	// MinSiteCoverage requires the chosen injection site to appear in at
	// least this fraction of the miss's history samples.
	MinSiteCoverage float64
	// SiteCoverageTier: candidates whose coverage is within this factor of
	// the best candidate's compete on fan-out (most specific wins); a
	// clearly-more-reliable site always wins regardless of fan-out.
	SiteCoverageTier float64
	// FanoutThreshold drops candidate sites whose fan-out exceeds it during
	// selection — AsmDB's accuracy knob (§II-C, Fig. 3). I-SPY uses 1.0
	// (cover everything; conditions restore accuracy).
	FanoutThreshold float64
	// FanoutEpsilon: a site whose fan-out (fraction of executions NOT
	// leading to the miss, §II-C) is at or below this needs no condition.
	FanoutEpsilon float64
	// MinPrecisionGain is how much P(miss|context) must beat P(miss|site)
	// for a context to be adopted (otherwise the prefetch stays
	// unconditional, §IV).
	MinPrecisionGain float64
	// MinRecall is the minimum fraction of miss-leading executions the
	// context must still fire on (coverage of the condition itself).
	MinRecall float64

	// CtxWindowSlackCycles widens the labeling window of the context pass
	// beyond MaxDistCycles so late misses still label their site execution.
	CtxWindowSlackCycles uint64

	// IPCDistance makes site selection estimate each predecessor's distance
	// as instruction-count × average CPI instead of the LBR's true cycle
	// annotations — AsmDB's method (§IV notes I-SPY drops this heuristic
	// because the LBR profile already carries cycles). Path-to-path CPI
	// variance then mis-places some injections (too late or too early).
	IPCDistance bool
	// AvgCPI is the application-wide cycles-per-instruction used with
	// IPCDistance (from the profiling run's aggregate statistics).
	AvgCPI float64

	// BloomDensity is the expected fraction of runtime-hash bits set when a
	// conditional prefetch executes. Context scoring uses it to model the
	// hardware's aliasing: a context of k blocks false-fires with
	// probability ≈ density^k, so effective precision and recall differ
	// from the exact-match estimates. 0 = take the measured value from the
	// profile (BuildISPY fills it in).
	BloomDensity float64
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		MinDistCycles:        27,
		MaxDistCycles:        200,
		HashBits:             16,
		MaxPreds:             4,
		CandidatePool:        8,
		CoalesceBits:         8,
		Conditional:          true,
		Coalesce:             true,
		MinMissCount:         1,
		MinSiteCoverage:      0.25,
		SiteCoverageTier:     0.85,
		FanoutThreshold:      1.0,
		FanoutEpsilon:        0.05,
		MinPrecisionGain:     0.12,
		MinRecall:            0.90,
		CtxWindowSlackCycles: 60,
	}
}

// withDefaults fills zero fields from DefaultOptions (booleans excepted:
// they are honest flags).
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MinDistCycles == 0 {
		o.MinDistCycles = d.MinDistCycles
	}
	if o.MaxDistCycles == 0 {
		o.MaxDistCycles = d.MaxDistCycles
	}
	if o.HashBits == 0 {
		o.HashBits = d.HashBits
	}
	if o.MaxPreds == 0 {
		o.MaxPreds = d.MaxPreds
	}
	if o.CandidatePool == 0 {
		o.CandidatePool = d.CandidatePool
	}
	if o.CandidatePool < o.MaxPreds {
		o.CandidatePool = o.MaxPreds
	}
	if o.CandidatePool > 64 {
		o.CandidatePool = 64
	}
	if o.CoalesceBits == 0 {
		o.CoalesceBits = d.CoalesceBits
	}
	if o.MinMissCount == 0 {
		o.MinMissCount = d.MinMissCount
	}
	if o.MinSiteCoverage == 0 {
		o.MinSiteCoverage = d.MinSiteCoverage
	}
	if o.SiteCoverageTier == 0 {
		o.SiteCoverageTier = d.SiteCoverageTier
	}
	if o.FanoutThreshold == 0 {
		o.FanoutThreshold = d.FanoutThreshold
	}
	if o.FanoutEpsilon == 0 {
		o.FanoutEpsilon = d.FanoutEpsilon
	}
	if o.MinPrecisionGain == 0 {
		o.MinPrecisionGain = d.MinPrecisionGain
	}
	if o.MinRecall == 0 {
		o.MinRecall = d.MinRecall
	}
	if o.CtxWindowSlackCycles == 0 {
		o.CtxWindowSlackCycles = d.CtxWindowSlackCycles
	}
	return o
}
