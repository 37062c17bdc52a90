package core

// A map-and-rescan implementation of context discovery, kept as a
// differential oracle: DiscoverContext must return bit-identical results on
// every input (TestDiscoverContextMatchesReference, FuzzDiscoverContext).
// Like the reference simulation kernel, it must not be optimized.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"ispy/internal/profile"
)

// discoverContextRef is the map-and-rescan reference for DiscoverContext.
func discoverContextRef(ls *profile.LabeledSet, site int32, opt Options) ContextResult {
	opt = opt.withDefaults()
	total := ls.PosTotal + ls.NegTotal
	res := ContextResult{}
	if total == 0 || ls.PosTotal == 0 || len(ls.Pos) == 0 {
		return res
	}
	res.Baseline = float64(ls.PosTotal) / float64(total)

	// Rank candidate predictor blocks by how much more often they appear in
	// positive than negative histories.
	posFreq := presenceFreq(ls.Pos)
	negFreq := presenceFreq(ls.Neg)
	type scored struct {
		block int32
		score float64
	}
	var cands []scored
	for b, pf := range posFreq {
		if b == site || pf < opt.MinRecall {
			continue
		}
		cands = append(cands, scored{b, pf - negFreq[b]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].block < cands[j].block
	})
	if len(cands) > opt.CandidatePool {
		cands = cands[:opt.CandidatePool]
	}
	if len(cands) == 0 {
		return res
	}
	pool := make([]int32, len(cands))
	for i, c := range cands {
		pool[i] = c.block
	}

	// Aliasing model: a k-block context false-fires with probability ≈
	// density^k when its blocks are absent (the runtime hash's set bits
	// cover the context bits by accident). Effective precision and recall
	// therefore include the alias term — which also means aliasing
	// *recovers* some coverage on miss-leading paths that lack the context.
	density := opt.BloomDensity
	if density <= 0 || density >= 1 {
		density = 0.85 // conservative default when unmeasured
	}
	aliasP := func(k int) float64 {
		p := 1.0
		for i := 0; i < k; i++ {
			p *= density
		}
		return p
	}

	var best ContextResult
	best.Baseline = res.Baseline
	eval := func(set []int32) (ContextResult, bool) {
		alias := aliasP(len(set))
		posFrac := fracContainingAll(ls.Pos, set)
		effRecall := posFrac + (1-posFrac)*alias
		if effRecall < opt.MinRecall {
			return ContextResult{}, false
		}
		negFrac := fracContainingAll(ls.Neg, set)
		effNegFire := negFrac + (1-negFrac)*alias
		posMass := float64(ls.PosTotal) * effRecall
		negMass := float64(ls.NegTotal) * effNegFire
		if posMass+negMass == 0 {
			return ContextResult{}, false
		}
		return ContextResult{
			Blocks:    append([]int32(nil), set...),
			Precision: posMass / (posMass + negMass),
			Recall:    effRecall,
			Baseline:  res.Baseline,
		}, true
	}
	better := func(a, b ContextResult) bool {
		if a.Precision != b.Precision {
			return a.Precision > b.Precision
		}
		if a.Recall != b.Recall {
			return a.Recall > b.Recall
		}
		return len(a.Blocks) < len(b.Blocks)
	}

	if opt.MaxPreds <= 4 {
		// Exhaustive combination search (the paper notes this is what makes
		// >4 predecessors cost tens of minutes at scale; ≤4 over a pool of
		// 8 is ≤ 162 subsets).
		subsets(pool, opt.MaxPreds, func(set []int32) {
			if r, ok := eval(set); ok && (best.Blocks == nil || better(r, best)) {
				best = r
			}
		})
	} else {
		// Greedy forward selection for large contexts (Fig. 17's tail);
		// documented substitution for the paper's increasingly expensive
		// exhaustive search.
		var cur []int32
		curRes := ContextResult{Baseline: res.Baseline}
		for len(cur) < opt.MaxPreds {
			improved := false
			var bestNext ContextResult
			var bestBlock int32
			for _, b := range pool {
				if contains(cur, b) {
					continue
				}
				if r, ok := eval(append(append([]int32{}, cur...), b)); ok {
					if bestNext.Blocks == nil || better(r, bestNext) {
						bestNext, bestBlock = r, b
					}
				}
			}
			if bestNext.Blocks != nil && (curRes.Blocks == nil || bestNext.Precision > curRes.Precision) {
				cur = append(cur, bestBlock)
				curRes = bestNext
				improved = true
			}
			if !improved {
				break
			}
		}
		best = curRes
	}

	if best.Blocks == nil || best.Precision-res.Baseline < opt.MinPrecisionGain {
		// The context doesn't beat the unconditional baseline enough; §IV:
		// fall back to an unconditional (possibly coalesced) prefetch.
		return res
	}
	sort.Slice(best.Blocks, func(i, j int) bool { return best.Blocks[i] < best.Blocks[j] })
	return best
}

// presenceFreq returns, per block, the fraction of snapshots containing it.
func presenceFreq(snaps [][]int32) map[int32]float64 {
	if len(snaps) == 0 {
		return nil
	}
	counts := make(map[int32]int)
	for _, s := range snaps {
		seen := make(map[int32]bool, len(s))
		for _, b := range s {
			if !seen[b] {
				seen[b] = true
				counts[b]++
			}
		}
	}
	out := make(map[int32]float64, len(counts))
	for b, c := range counts {
		out[b] = float64(c) / float64(len(snaps))
	}
	return out
}

// fracContainingAll returns the fraction of snapshots containing every
// block of set.
func fracContainingAll(snaps [][]int32, set []int32) float64 {
	if len(snaps) == 0 {
		return 0
	}
	n := 0
snapLoop:
	for _, s := range snaps {
		for _, want := range set {
			if !containsVal(s, want) {
				continue snapLoop
			}
		}
		n++
	}
	return float64(n) / float64(len(snaps))
}

func containsVal(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func contains(s []int32, v int32) bool { return containsVal(s, v) }

// subsets enumerates all non-empty subsets of pool of size ≤ k, calling fn
// with a reused buffer (fn must copy if it keeps the set).
func subsets(pool []int32, k int, fn func([]int32)) {
	var buf []int32
	var rec func(start int)
	rec = func(start int) {
		for i := start; i < len(pool); i++ {
			buf = append(buf, pool[i])
			fn(buf)
			if len(buf) < k {
				rec(i + 1)
			}
			buf = buf[:len(buf)-1]
		}
	}
	rec(0)
}

// sameContext reports whether two discovery results are bit-identical.
func sameContext(a, b ContextResult) bool {
	return slices.Equal(a.Blocks, b.Blocks) &&
		math.Float64bits(a.Precision) == math.Float64bits(b.Precision) &&
		math.Float64bits(a.Recall) == math.Float64bits(b.Recall) &&
		math.Float64bits(a.Baseline) == math.Float64bits(b.Baseline)
}

// discoveryVariant is one option set of the sensitivity figures.
type discoveryVariant struct {
	name string
	opt  func(*Options)
}

// discoveryVariants are the discovery options the sensitivity figures vary.
func discoveryVariants() []discoveryVariant {
	variants := []discoveryVariant{{"defaults", func(*Options) {}}}
	for _, k := range []int{1, 8, 32} {
		variants = append(variants, discoveryVariant{fmt.Sprintf("preds=%d", k), func(o *Options) {
			o.MaxPreds, o.CandidatePool = k, max(k, 8) // as Fig. 17 sets them
		}})
	}
	for _, b := range []int{4, 64} {
		variants = append(variants, discoveryVariant{fmt.Sprintf("hash=%d", b), func(o *Options) { o.HashBits = b }})
	}
	return variants
}

// refOptions applies v to the default options and fills in the Bloom
// density as BuildFromPrepared does.
func refOptions(p *profile.Profile, v discoveryVariant) Options {
	opt := DefaultOptions()
	v.opt(&opt)
	opt = opt.withDefaults()
	opt.BloomDensity = AdjustDensity(p.AvgHashDensity, 16, opt.HashBits)
	return opt
}

// TestDiscoverContextMatchesReference runs DiscoverContext and the reference
// over every labeled set of two apps under the option sets the sensitivity
// figures use; verilator's sets have almost no negative evidence.
func TestDiscoverContextMatchesReference(t *testing.T) {
	for _, app := range []string{"tomcat", "verilator"} {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			p, prep := prepareQuick(app)
			if prep.CP == nil {
				t.Fatal("no labeled evidence")
			}
			adopted := 0
			for _, v := range discoveryVariants() {
				opt := refOptions(p, v)
				for _, c := range prep.Needs {
					ls := prep.CP.Get(c.Site, c.Target)
					if ls == nil {
						continue
					}
					got, want := DiscoverContext(ls, c.Site, opt), discoverContextRef(ls, c.Site, opt)
					if !sameContext(got, want) {
						t.Fatalf("%s: site %d target %v: got %+v, want %+v", v.name, c.Site, c.Target, got, want)
					}
					if got.Conditional() {
						adopted++
					}
				}
			}
			if adopted == 0 {
				t.Error("no call adopted a context")
			}
		})
	}
}

// TestBuildFromPreparedMatchesReference checks per-site discovery against
// the reference: a build's contexts are exactly the needs for which
// discoverContextRef adopts a context, each bit-identical.
func TestBuildFromPreparedMatchesReference(t *testing.T) {
	for _, app := range []string{"tomcat", "verilator"} {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			p, prep := prepareQuick(app)
			for _, v := range discoveryVariants() {
				opt := DefaultOptions()
				v.opt(&opt)
				got := BuildFromPrepared(p, prep, opt).Contexts
				ropt := refOptions(p, v)
				adopted := 0
				for _, c := range prep.Needs {
					ls := prep.CP.Get(c.Site, c.Target)
					if ls == nil {
						continue
					}
					want := discoverContextRef(ls, c.Site, ropt)
					res, ok := got[c.Target]
					if ok != want.Conditional() || ok && !sameContext(res, want) {
						t.Fatalf("%s: site %d target %v: got %+v (present %v), want %+v", v.name, c.Site, c.Target, res, ok, want)
					}
					if ok {
						adopted++
					}
				}
				if adopted != len(got) {
					t.Fatalf("%s: build holds %d contexts, reference adopts %d", v.name, len(got), adopted)
				}
			}
		})
	}
}

// TestBuildFromPreparedConcurrent runs variant builds over one shared
// Prepared at once, as the sensitivity figures do. Each must equal its
// sequential build; under the race detector this also checks that discovery
// and planning only read the shared evidence.
func TestBuildFromPreparedConcurrent(t *testing.T) {
	p, prep := prepareQuick("tomcat")
	preds := []int{1, 2, 4, 8}
	opts := make([]Options, len(preds))
	want := make([]*Build, len(preds))
	for i, k := range preds {
		opts[i] = DefaultOptions()
		opts[i].MaxPreds = k
		want[i] = BuildFromPrepared(p, prep, opts[i])
	}
	got := make([]*Build, len(preds))
	var wg sync.WaitGroup
	for i := range preds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = BuildFromPrepared(p, prep, opts[i])
		}()
	}
	wg.Wait()
	for i, k := range preds {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("MaxPreds=%d: concurrent build differs from the sequential one", k)
		}
	}
}

// FuzzDiscoverContext checks DiscoverContext against the reference on small
// labeled sets whose block IDs come from 12 values, so snapshots repeat
// blocks and share candidates.
func FuzzDiscoverContext(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint8(230), uint8(128), uint8(159), uint8(6), uint8(2), uint8(5), []byte{4, 3, 0, 1, 6, 3, 0, 4, 6, 2, 2, 0, 3, 5, 6, 1, 4, 0, 1, 6, 4, 0, 2, 5, 6})
	f.Add(uint8(7), uint8(15), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{9, 0, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(0), uint8(0), uint8(128), uint8(250), uint8(100), uint8(11), uint8(40), uint8(0), []byte{24, 24, 32, 5, 5, 5, 5})
	// No negatives and a negative gain: {1}, {1,2}, … all reach precision
	// and recall 1, so only the size tie-break picks among them.
	f.Add(uint8(3), uint8(7), uint8(230), uint8(128), uint8(0), uint8(6), uint8(0), uint8(0), []byte{2, 0, 3, 1, 2, 3, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, maxPreds, pool, minRecall, density, gain, site, extraPos, extraNeg uint8, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		snaps := func(n int) [][]int32 {
			out := make([][]int32, n)
			for i := range out {
				out[i] = make([]int32, next()%33)
				for j := range out[i] {
					out[i][j] = int32(next() % 12)
				}
			}
			return out
		}
		ls := &profile.LabeledSet{}
		nPos, nNeg := next()%25, next()%25
		ls.Pos, ls.Neg = snaps(nPos), snaps(nNeg)
		ls.PosTotal = uint64(len(ls.Pos)) + uint64(extraPos)
		ls.NegTotal = uint64(len(ls.Neg)) + uint64(extraNeg)
		opt := DefaultOptions()
		opt.MaxPreds = 1 + int(maxPreds)%8
		opt.CandidatePool = 1 + int(pool)%16
		opt.MinRecall = float64(minRecall) / 256
		opt.BloomDensity = float64(density) / 256
		// A gain at or below zero adopts contexts that tie on precision and
		// recall, which exposes the tie-break on context size.
		opt.MinPrecisionGain = float64(gain)/256 - 0.5
		s := int32(site % 12)
		got, want := DiscoverContext(ls, s, opt), discoverContextRef(ls, s, opt)
		if !sameContext(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		// The same snapshots labeled the other way round, indexed with ls as
		// two targets of one site: each shared slice converts once.
		flip := &profile.LabeledSet{Pos: ls.Neg, Neg: ls.Pos, PosTotal: ls.NegTotal, NegTotal: ls.PosTotal}
		var ix siteIndex
		ix.index([]*profile.LabeledSet{ls, flip})
		for i, set := range ix.sets {
			got, want := ix.discover(i, s, opt.withDefaults()), discoverContextRef(set, s, opt)
			if !sameContext(got, want) {
				t.Fatalf("target %d of a shared index: got %+v, want %+v", i, got, want)
			}
		}
	})
}
