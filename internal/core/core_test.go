package core

import (
	"math"
	"reflect"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/isa"
	"ispy/internal/profile"
)

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.MinDistCycles != 27 || o.MaxDistCycles != 200 {
		t.Error("prefetch window must default to 27–200 cycles (§V)")
	}
	if o.HashBits != 16 {
		t.Error("context hash must default to 16 bits (§VI-B)")
	}
	if o.MaxPreds != 4 {
		t.Error("context size must default to 4 predecessors (§VI-B)")
	}
	if o.CoalesceBits != 8 {
		t.Error("coalescing bitmask must default to 8 bits (§V)")
	}
	if !o.Conditional || !o.Coalesce {
		t.Error("both techniques on by default")
	}
}

func TestWithDefaultsFillsZeros(t *testing.T) {
	o := Options{MaxPreds: 2}.withDefaults()
	if o.MinDistCycles != 27 || o.HashBits != 16 || o.MaxPreds != 2 {
		t.Error("withDefaults wrong")
	}
	if o.CandidatePool < o.MaxPreds {
		t.Error("candidate pool must cover MaxPreds")
	}
	big := Options{MaxPreds: 16}.withDefaults()
	if big.CandidatePool < 16 {
		t.Error("pool not widened for large contexts")
	}
}

// fig2Graph builds the Fig. 2-style graph: the miss at block 9 is reached
// through predecessor 6 ("G", in the window), which executes far more often
// than it leads to the miss; block 4 ("E") is a reliable in-window
// predecessor too.
func fig2Graph(missCount uint64, gExec uint64) *cfg.Graph {
	g := cfg.NewGraph(10)
	g.Exec[6] = gExec
	g.Exec[4] = gExec / 2
	site := g.Site(cfg.LineKey{Block: 9, Delta: 0})
	site.Count = missCount
	g.TotalMisses = missCount
	n := int(missCount)
	if n > 20 {
		n = 20
	}
	for i := 0; i < n; i++ {
		site.Samples = append(site.Samples, cfg.Sample{Preds: []cfg.PredEntry{
			cfg.Pred(0, 500, 900), // too far
			cfg.Pred(4, 150, 300), // in window
			cfg.Pred(6, 60, 120),  // in window
			cfg.Pred(7, 10, 20),   // too close
		}})
	}
	return g
}

func TestSelectSitesPicksInWindowPredecessor(t *testing.T) {
	g := fig2Graph(50, 100)
	choices, uncovered := SelectSites(g, DefaultOptions())
	if uncovered != 0 {
		t.Fatalf("uncovered = %d", uncovered)
	}
	if len(choices) != 1 {
		t.Fatalf("choices = %d", len(choices))
	}
	c := choices[0]
	if c.Site != 6 && c.Site != 4 {
		t.Fatalf("site %d is outside the window candidates", c.Site)
	}
	// Both candidates have full coverage; the tier rule picks the lower
	// fan-out one. G leads to the miss 50/100; E 50/50 ⇒ E (block 4) wins.
	if c.Site != 4 {
		t.Errorf("site = %d, want most-specific (4)", c.Site)
	}
	if c.Coverage != 1 {
		t.Errorf("coverage = %v", c.Coverage)
	}
}

func TestSelectSitesRespectsWindow(t *testing.T) {
	g := cfg.NewGraph(4)
	site := g.Site(cfg.LineKey{Block: 3, Delta: 0})
	site.Count = 10
	g.TotalMisses = 10
	for i := 0; i < 10; i++ {
		site.Samples = append(site.Samples, cfg.Sample{Preds: []cfg.PredEntry{
			cfg.Pred(0, 300, 0), // beyond max
			cfg.Pred(1, 5, 0),   // below min
		}})
	}
	g.Exec[0], g.Exec[1] = 10, 10
	choices, uncovered := SelectSites(g, DefaultOptions())
	if len(choices) != 0 || uncovered != 10 {
		t.Errorf("expected full uncoverage, got %d choices, %d uncovered", len(choices), uncovered)
	}
}

func TestSelectSitesFanoutThreshold(t *testing.T) {
	g := fig2Graph(5, 1000) // G fan-out = 1−5/1000 ≈ 0.995; E = 1−5/500 = 0.99
	opt := DefaultOptions()
	opt.FanoutThreshold = 0.992
	choices, _ := SelectSites(g, opt)
	if len(choices) != 1 || choices[0].Site != 4 {
		t.Fatalf("threshold should leave only E: %+v", choices)
	}
	opt.FanoutThreshold = 0.5
	choices, uncovered := SelectSites(g, opt)
	if len(choices) != 0 || uncovered != 5 {
		t.Error("strict threshold should uncover the miss")
	}
}

func TestSelectSitesIPCDistance(t *testing.T) {
	// With CPI = 1.0, instruction deltas equal estimated cycles; block 0's
	// InstrDelta (900) stays out of window, block 6's (120) is in.
	g := fig2Graph(10, 20)
	opt := DefaultOptions()
	opt.IPCDistance = true
	opt.AvgCPI = 1.0
	choices, _ := SelectSites(g, opt)
	if len(choices) != 1 {
		t.Fatal("no choice under IPC distance")
	}
	// With a wildly wrong CPI estimate (0.01), all estimated distances
	// collapse below MinDist and the miss becomes uncoverable — exactly the
	// failure mode the paper attributes to IPC-based estimation.
	opt.AvgCPI = 0.01
	choices, uncovered := SelectSites(g, opt)
	if len(choices) != 0 || uncovered != 10 {
		t.Error("tiny CPI estimate should push every candidate out of the window")
	}
}

func TestMinMissCountFilter(t *testing.T) {
	g := fig2Graph(1, 10)
	opt := DefaultOptions()
	opt.MinMissCount = 2
	choices, uncovered := SelectSites(g, opt)
	if len(choices) != 0 || uncovered != 1 {
		t.Error("rare miss should be filtered by MinMissCount")
	}
}

func TestGroupBySiteDeterministic(t *testing.T) {
	choices := []SiteChoice{
		{Site: 9, Target: cfg.LineKey{Block: 1}},
		{Site: 3, Target: cfg.LineKey{Block: 2}},
		{Site: 9, Target: cfg.LineKey{Block: 3}},
	}
	sites, bySite := GroupBySite(choices)
	if len(sites) != 2 || sites[0] != 3 || sites[1] != 9 {
		t.Errorf("sites = %v", sites)
	}
	if len(bySite[9]) != 2 {
		t.Error("grouping lost a choice")
	}
}

// Fig. 6-style labeled evidence: histories containing B(=1) and E(=4) lead
// to the miss; others do not.
func fig6Evidence(pos, neg int) *profile.LabeledSet {
	ls := &profile.LabeledSet{}
	for i := 0; i < pos; i++ {
		ls.Pos = append(ls.Pos, []int32{0, 1, 4, 6}) // A B E G
		ls.PosTotal++
	}
	for i := 0; i < neg; i++ {
		if i%2 == 0 {
			ls.Neg = append(ls.Neg, []int32{0, 3, 5, 6}) // A D F G
		} else {
			ls.Neg = append(ls.Neg, []int32{0, 2, 5, 6}) // A C F G
		}
		ls.NegTotal++
	}
	return ls
}

func TestDiscoverContextFindsPredictors(t *testing.T) {
	ls := fig6Evidence(40, 60)
	opt := DefaultOptions()
	opt.BloomDensity = 0.5
	res := DiscoverContext(ls, 6, opt) // site G must exclude itself
	if !res.Conditional() {
		t.Fatalf("no context adopted: %+v", res)
	}
	// The context must include a discriminating block (B or E). It may
	// also include always-present blocks like A: under the aliasing model,
	// extra reliably-present bits sharpen the hash without hurting recall.
	hasPredictor := false
	for _, b := range res.Blocks {
		if b == 1 || b == 4 {
			hasPredictor = true
		}
		if b == 6 {
			t.Error("context must exclude the site itself")
		}
		if b == 3 || b == 5 {
			t.Errorf("context includes a negative-only block %d", b)
		}
	}
	if !hasPredictor {
		t.Errorf("context %v lacks a discriminating predictor", res.Blocks)
	}
	if res.Precision <= res.Baseline {
		t.Errorf("precision %v must beat baseline %v", res.Precision, res.Baseline)
	}
	if res.Recall < opt.MinRecall {
		t.Errorf("recall %v below floor", res.Recall)
	}
}

func TestDiscoverContextRejectsUselessContext(t *testing.T) {
	// Same histories on both sides: no context can help.
	ls := &profile.LabeledSet{}
	for i := 0; i < 50; i++ {
		ls.Pos = append(ls.Pos, []int32{0, 1, 2})
		ls.PosTotal++
		ls.Neg = append(ls.Neg, []int32{0, 1, 2})
		ls.NegTotal++
	}
	if res := DiscoverContext(ls, 9, DefaultOptions()); res.Conditional() {
		t.Errorf("adopted a context with no discriminative power: %+v", res)
	}
}

func TestDiscoverContextEmptyEvidence(t *testing.T) {
	if DiscoverContext(&profile.LabeledSet{}, 0, DefaultOptions()).Conditional() {
		t.Error("empty evidence must not yield a context")
	}
}

func TestDiscoverContextRespectsMaxPreds(t *testing.T) {
	ls := fig6Evidence(60, 60)
	opt := DefaultOptions()
	opt.MaxPreds = 1
	opt.BloomDensity = 0.5
	res := DiscoverContext(ls, 6, opt)
	if res.Conditional() && len(res.Blocks) > 1 {
		t.Errorf("MaxPreds=1 produced %d blocks", len(res.Blocks))
	}
}

func TestDiscoverContextGreedyLargeK(t *testing.T) {
	ls := fig6Evidence(60, 60)
	opt := DefaultOptions()
	opt.MaxPreds = 8 // > 4 triggers the greedy path
	opt.BloomDensity = 0.5
	res := DiscoverContext(ls, 6, opt)
	if !res.Conditional() {
		t.Error("greedy search found nothing on clean evidence")
	}
}

func TestAliasModelDegradesWeakContexts(t *testing.T) {
	// With density→1 the hardware cannot suppress anything; no context
	// should be adopted (precision collapses to baseline).
	ls := fig6Evidence(40, 60)
	opt := DefaultOptions()
	opt.BloomDensity = 0.999999
	if res := DiscoverContext(ls, 6, opt); res.Conditional() {
		t.Errorf("adopted a context under total aliasing: %+v", res)
	}
}

func TestAdjustDensity(t *testing.T) {
	// Measured 0.8 at 16 bits → fewer bits ⇒ denser, more bits ⇒ sparser.
	d8 := AdjustDensity(0.8, 16, 8)
	d64 := AdjustDensity(0.8, 16, 64)
	if !(d8 > 0.8 && 0.8 > d64) {
		t.Errorf("density scaling wrong: 8→%v 16→0.8 64→%v", d8, d64)
	}
	if AdjustDensity(0.8, 16, 16) != 0.8 {
		t.Error("identity case wrong")
	}
	if AdjustDensity(0, 16, 8) != 0 || AdjustDensity(1, 16, 8) != 1 {
		t.Error("degenerate densities must pass through")
	}
}

// TestAdjustDensityPinned pins AdjustDensity bit for bit: its ln/exp come
// from internal/rng, and the figures' context scoring reads its result.
func TestAdjustDensityPinned(t *testing.T) {
	for _, c := range []struct {
		density  float64
		from, to int
		want     uint64
	}{
		{0.73, 16, 32, 0x3fde643ce73b254a},
		{0.5, 16, 8, 0x3fe85fab69b37d2a},
		{0.2, 64, 16, 0x3fe32d380e7236d6},
	} {
		if got := AdjustDensity(c.density, c.from, c.to); math.Float64bits(got) != c.want {
			t.Errorf("AdjustDensity(%v, %d, %d) = %v (%#x), want %#x",
				c.density, c.from, c.to, got, math.Float64bits(got), c.want)
		}
	}
}

// --- coalescing & injection ---

// progForPlan builds one function with a site block (0) and several target
// blocks, each exactly one line.
func progForPlan(nTargets int) *isa.Program {
	p := &isa.Program{}
	p.Funcs = append(p.Funcs, isa.Func{Name: "f", Align: 64})
	for i := 0; i <= nTargets; i++ {
		var ins []isa.Instr
		for k := 0; k < 14; k++ {
			ins = append(ins, isa.NewInstr(isa.KindALU, 4))
		}
		// Pad to exactly one 64-byte line (14×4 + 6 + 2), terminator last.
		ins = append(ins, isa.NewInstr(isa.KindNop, 6), isa.NewInstr(isa.KindBranch, 2))
		p.Blocks = append(p.Blocks, isa.Block{ID: i, Func: 0, Instrs: ins})
		p.Funcs[0].Blocks = append(p.Funcs[0].Blocks, i)
	}
	p.Layout()
	return p
}

func TestBuildPlanCoalescesSameContext(t *testing.T) {
	prog := progForPlan(4)
	choices := []SiteChoice{
		{Site: 0, Target: cfg.LineKey{Block: 1, Delta: 0}, MissCount: 10},
		{Site: 0, Target: cfg.LineKey{Block: 2, Delta: 0}, MissCount: 10},
		{Site: 0, Target: cfg.LineKey{Block: 3, Delta: 0}, MissCount: 10},
	}
	ctx := map[cfg.LineKey]ContextResult{
		choices[0].Target: {Blocks: []int32{4}},
		choices[1].Target: {Blocks: []int32{4}},
		choices[2].Target: {Blocks: []int32{4}},
	}
	plan := BuildPlan(prog, choices, ctx, 30, 0, DefaultOptions())
	if len(plan.Prefetches) != 1 {
		t.Fatalf("same-context neighbors should coalesce into 1 instruction, got %d", len(plan.Prefetches))
	}
	if plan.Prefetches[0].Kind != isa.KindCLprefetch {
		t.Errorf("kind = %v, want CLprefetch", plan.Prefetches[0].Kind)
	}
	if plan.MissesPlanned != 30 {
		t.Errorf("planned mass = %d", plan.MissesPlanned)
	}
}

func TestBuildPlanDifferentContextsDoNotCoalesce(t *testing.T) {
	// Fig. 8's rule: prefetches group by context.
	prog := progForPlan(4)
	choices := []SiteChoice{
		{Site: 0, Target: cfg.LineKey{Block: 1, Delta: 0}, MissCount: 1},
		{Site: 0, Target: cfg.LineKey{Block: 2, Delta: 0}, MissCount: 1},
	}
	ctx := map[cfg.LineKey]ContextResult{
		choices[0].Target: {Blocks: []int32{3}},
		choices[1].Target: {Blocks: []int32{4}},
	}
	plan := BuildPlan(prog, choices, ctx, 2, 0, DefaultOptions())
	if len(plan.Prefetches) != 2 {
		t.Fatalf("different contexts must not merge, got %d instructions", len(plan.Prefetches))
	}
	for _, pf := range plan.Prefetches {
		if pf.Kind != isa.KindCprefetch {
			t.Errorf("kind = %v, want Cprefetch", pf.Kind)
		}
	}
}

func TestBuildPlanWindowLimit(t *testing.T) {
	// Targets farther apart than the bitmask window stay separate.
	prog := progForPlan(12)
	choices := []SiteChoice{
		{Site: 0, Target: cfg.LineKey{Block: 1, Delta: 0}, MissCount: 1},
		{Site: 0, Target: cfg.LineKey{Block: 11, Delta: 0}, MissCount: 1},
	}
	plan := BuildPlan(prog, choices, nil, 2, 0, DefaultOptions())
	if len(plan.Prefetches) != 2 {
		t.Fatalf("out-of-window targets merged: %d instructions", len(plan.Prefetches))
	}
}

func TestBuildPlanNoCoalesceOption(t *testing.T) {
	prog := progForPlan(4)
	choices := []SiteChoice{
		{Site: 0, Target: cfg.LineKey{Block: 1, Delta: 0}, MissCount: 1},
		{Site: 0, Target: cfg.LineKey{Block: 2, Delta: 0}, MissCount: 1},
	}
	opt := DefaultOptions()
	opt.Coalesce = false
	plan := BuildPlan(prog, choices, nil, 2, 0, opt)
	if len(plan.Prefetches) != 2 {
		t.Fatalf("Coalesce=false still merged: %d", len(plan.Prefetches))
	}
}

func TestApplyInjectsAndRelayouts(t *testing.T) {
	prog := progForPlan(4)
	origSize := prog.TextSize
	choices := []SiteChoice{{Site: 0, Target: cfg.LineKey{Block: 2, Delta: 0}, MissCount: 1}}
	plan := BuildPlan(prog, choices, nil, 1, 0, DefaultOptions())
	injected := plan.Apply(prog)
	if injected == prog {
		t.Fatal("Apply must clone")
	}
	if err := injected.Validate(); err != nil {
		t.Fatal(err)
	}
	if injected.TextSize <= origSize {
		t.Error("injection did not grow the text segment")
	}
	bytes, count := injected.PrefetchBytes()
	if count != len(plan.Prefetches) {
		t.Error("prefetch count mismatch after injection")
	}
	if s := plan.Summary(); s.PrefetchBytes(plan.Opt) != bytes {
		t.Errorf("plan prices %d injected bytes, the program holds %d", s.PrefetchBytes(plan.Opt), bytes)
	}
	// The original program is untouched.
	if _, count := prog.PrefetchBytes(); count != 0 {
		t.Error("Apply mutated the base program")
	}
}

// TestApplyCoversOriginalBytes is the key injection invariant: for every
// planned target, the final instruction's prefetched lines must cover every
// line overlapped by the target's original 64 code bytes in the *new*
// layout, even though injection shifted line boundaries.
func TestApplyCoversOriginalBytes(t *testing.T) {
	prog := progForPlan(8)
	var choices []SiteChoice
	for b := 1; b <= 8; b++ {
		choices = append(choices, SiteChoice{
			Site: 0, Target: cfg.LineKey{Block: int32(b), Delta: 0}, MissCount: 1,
		})
	}
	plan := BuildPlan(prog, choices, nil, 8, 0, DefaultOptions())
	injected := plan.Apply(prog)

	// Reconstruct injectedAt (bytes inserted at each site block).
	injectedAt := map[int32]int{}
	for i := range injected.Blocks {
		for _, in := range injected.Blocks[i].Instrs {
			if in.Kind.IsPrefetch() {
				injectedAt[int32(i)] += int(in.Size)
			}
		}
	}
	covered := map[isa.Addr]bool{}
	for _, blk := range injected.Blocks {
		for _, in := range blk.Instrs {
			if in.Kind.IsPrefetch() {
				for _, ln := range in.CoalescedLines(nil) {
					covered[ln] = true
				}
			}
		}
	}
	for _, pf := range plan.Prefetches {
		for _, tgt := range pf.Targets {
			newStart := int64(injected.Blocks[tgt.Block].Addr) + int64(injectedAt[tgt.Block]) + int64(tgt.Delta)
			first := isa.LineOf(isa.Addr(newStart))
			second := isa.LineOf(isa.Addr(newStart + isa.LineSize - 1))
			if !covered[first] || !covered[second] {
				t.Fatalf("target %v bytes [%#x,%#x] not fully covered (first=%v second=%v)",
					tgt, newStart, newStart+63, covered[first], covered[second])
			}
		}
	}
	if plan.DroppedCoalesceTargets != 0 {
		t.Errorf("dropped %d coalesce targets", plan.DroppedCoalesceTargets)
	}
}

func TestApplyEncodesContextHashFromFinalAddresses(t *testing.T) {
	prog := progForPlan(4)
	choices := []SiteChoice{{Site: 0, Target: cfg.LineKey{Block: 2, Delta: 0}, MissCount: 1}}
	ctx := map[cfg.LineKey]ContextResult{
		choices[0].Target: {Blocks: []int32{3}},
	}
	plan := BuildPlan(prog, choices, ctx, 1, 0, DefaultOptions())
	injected := plan.Apply(prog)
	var found *isa.Instr
	for i := range injected.Blocks[0].Instrs {
		if injected.Blocks[0].Instrs[i].Kind.IsConditional() {
			found = &injected.Blocks[0].Instrs[i]
		}
	}
	if found == nil {
		t.Fatal("no conditional prefetch injected")
	}
	if len(found.CtxAddrs) != 1 || found.CtxAddrs[0] != injected.Blocks[3].Addr {
		t.Errorf("context address %v does not match final layout address %#x",
			found.CtxAddrs, injected.Blocks[3].Addr)
	}
	if found.CtxHash == 0 {
		t.Error("context hash not encoded")
	}
}

func TestKindCounts(t *testing.T) {
	plan := &Plan{Prefetches: []PlannedPrefetch{
		{Kind: isa.KindPrefetch}, {Kind: isa.KindPrefetch}, {Kind: isa.KindCLprefetch},
	}}
	kc := plan.KindCounts()
	if kc[isa.KindPrefetch] != 2 || kc[isa.KindCLprefetch] != 1 {
		t.Errorf("KindCounts = %v", kc)
	}
}

// TestPlanSummary: a plan's summary carries its counters and histograms,
// counts the instructions of each prefetch kind as KindCounts does (and
// none of another kind), and counts the conditional and the coalesced ones.
func TestPlanSummary(t *testing.T) {
	two := []cfg.LineKey{{Block: 1}, {Block: 1, Delta: 64}}
	plan := &Plan{
		MissesTotal: 9, MissesPlanned: 7, MissesUncovered: 2,
		CoalescedLineCounts: []int{2}, CoalesceDistances: []int{1},
		Prefetches: []PlannedPrefetch{
			{Kind: isa.KindPrefetch, Targets: two[:1]},
			{Kind: isa.KindCprefetch, Targets: two[:1], CtxBlocks: []int32{3}},
			{Kind: isa.KindLprefetch, Targets: two},
			{Kind: isa.KindCLprefetch, Targets: two, CtxBlocks: []int32{3, 4}},
			{Kind: isa.KindCLprefetch, Targets: two, CtxBlocks: []int32{5}},
			{Kind: isa.KindALU, Targets: two[:1]},
		},
	}
	s := plan.Summary()
	want := PlanSummary{
		MissesTotal: 9, MissesPlanned: 7, MissesUncovered: 2,
		CoalescedLineCounts: plan.CoalescedLineCounts, CoalesceDistances: plan.CoalesceDistances,
		Prefetches: 6, Conditional: 3, Coalesced: 3, Kinds: [4]int{1, 1, 1, 2},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("Summary = %+v, want %+v", s, want)
	}
	kc := plan.KindCounts()
	for i, k := range []isa.Kind{isa.KindPrefetch, isa.KindCprefetch, isa.KindLprefetch, isa.KindCLprefetch} {
		if s.Kinds[i] != kc[k] {
			t.Errorf("%s: the summary counts %d, KindCounts %d", k, s.Kinds[i], kc[k])
		}
	}
}
