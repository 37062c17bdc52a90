// Miss-context discovery (§III-A, Fig. 6): given labeled LBR snapshots from
// executions of an injection site, find the combination of predictor blocks
// whose presence maximizes P(miss | context) by Bayes' rule, subject to a
// recall floor so the condition still fires on most miss-leading paths.
package core

import (
	"math/bits"
	"sort"

	"ispy/internal/profile"
)

// ContextResult is the outcome of discovery for one (site, target) pair.
type ContextResult struct {
	// Blocks is the chosen predictor-block set (empty = stay unconditional).
	Blocks []int32
	// Precision is the estimated P(miss | context present).
	Precision float64
	// Recall is the fraction of miss-leading site executions whose history
	// contained the context.
	Recall float64
	// Baseline is P(miss | site executes) with no context (1 − fan-out).
	Baseline float64
}

// Conditional reports whether a context was adopted.
func (c ContextResult) Conditional() bool { return len(c.Blocks) > 0 }

// DiscoverContext runs predictor ranking plus combination search over the
// labeled evidence. site excludes itself from candidate predictors. It only
// reads ls: concurrent variant builds share one labeled set.
//
// The search works on pool masks: bit i of a snapshot's mask says it holds
// the i-th candidate predictor, so "the history contains every block of the
// context" is one mask&set == set test per snapshot.
func DiscoverContext(ls *profile.LabeledSet, site int32, opt Options) ContextResult {
	opt = opt.withDefaults()
	total := ls.PosTotal + ls.NegTotal
	res := ContextResult{}
	if total == 0 || ls.PosTotal == 0 || len(ls.Pos) == 0 {
		return res
	}
	res.Baseline = float64(ls.PosTotal) / float64(total)

	pool := rankPredictors(ls, site, opt)
	if len(pool) == 0 {
		return res
	}
	posMasks, negMasks := poolMasks(ls.Pos, pool), poolMasks(ls.Neg, pool)

	// Aliasing model: a k-block context false-fires with probability ≈
	// density^k when its blocks are absent (the runtime hash's set bits
	// cover the context bits by accident). Effective precision and recall
	// therefore include the alias term — which also means aliasing
	// *recovers* some coverage on miss-leading paths that lack the context.
	density := opt.BloomDensity
	if density <= 0 || density >= 1 {
		density = 0.85 // conservative default when unmeasured
	}
	var aliasP [65]float64 // aliasP[k] = density^k; a pool holds at most 64 blocks
	aliasP[0] = 1
	for k := 1; k <= len(pool); k++ {
		aliasP[k] = aliasP[k-1] * density
	}

	// A candidate context: a pool mask and its effective precision/recall.
	type candidate struct {
		set               uint64
		precision, recall float64
	}
	eval := func(set uint64) (candidate, bool) {
		alias := aliasP[bits.OnesCount64(set)]
		posFrac := fracMatching(posMasks, set)
		effRecall := posFrac + (1-posFrac)*alias
		if effRecall < opt.MinRecall {
			return candidate{}, false
		}
		negFrac := fracMatching(negMasks, set)
		effNegFire := negFrac + (1-negFrac)*alias
		posMass := float64(ls.PosTotal) * effRecall
		negMass := float64(ls.NegTotal) * effNegFire
		if posMass+negMass == 0 {
			return candidate{}, false
		}
		return candidate{set, posMass / (posMass + negMass), effRecall}, true
	}
	better := func(a, b candidate) bool {
		if a.precision != b.precision {
			return a.precision > b.precision
		}
		if a.recall != b.recall {
			return a.recall > b.recall
		}
		return bits.OnesCount64(a.set) < bits.OnesCount64(b.set)
	}

	var best candidate
	found := false
	if opt.MaxPreds <= 4 {
		// Exhaustive combination search (the paper notes this is what makes
		// >4 predecessors cost tens of minutes at scale; ≤4 over a pool of
		// 8 is ≤ 162 subsets), in lexicographic order of pool indices so
		// the first of equally good contexts wins.
		var walk func(start, size int, set uint64)
		walk = func(start, size int, set uint64) {
			for i := start; i < len(pool); i++ {
				s := set | 1<<i
				if c, ok := eval(s); ok && (!found || better(c, best)) {
					best, found = c, true
				}
				if size+1 < opt.MaxPreds {
					walk(i+1, size+1, s)
				}
			}
		}
		walk(0, 0, 0)
	} else {
		// Greedy forward selection for large contexts (Fig. 17's tail);
		// documented substitution for the paper's increasingly expensive
		// exhaustive search.
		for bits.OnesCount64(best.set) < opt.MaxPreds {
			var next candidate
			nextFound := false
			for i := range pool {
				if best.set&(1<<i) != 0 {
					continue
				}
				if c, ok := eval(best.set | 1<<i); ok && (!nextFound || better(c, next)) {
					next, nextFound = c, true
				}
			}
			if !nextFound || (found && next.precision <= best.precision) {
				break
			}
			best, found = next, true
		}
	}

	if !found || best.precision-res.Baseline < opt.MinPrecisionGain {
		// The context doesn't beat the unconditional baseline enough; §IV:
		// fall back to an unconditional (possibly coalesced) prefetch.
		return res
	}
	res.Precision, res.Recall = best.precision, best.recall
	res.Blocks = make([]int32, 0, bits.OnesCount64(best.set))
	for i, b := range pool {
		if best.set&(1<<i) != 0 {
			res.Blocks = append(res.Blocks, b)
		}
	}
	sort.Slice(res.Blocks, func(i, j int) bool { return res.Blocks[i] < res.Blocks[j] })
	return res
}

// rankPredictors returns the candidate pool: the blocks other than site that
// appear in at least MinRecall of the positive snapshots, ranked by how much
// more often they appear in positive than negative snapshots (ties by block
// ID) and cut to CandidatePool.
func rankPredictors(ls *profile.LabeledSet, site int32, opt Options) []int32 {
	// One record per block of a positive snapshot. last stamps the snapshot
	// that last counted the block (positives 1.., negatives after them), so
	// a block repeated within one history counts once.
	type record struct {
		block, pos, neg, last int32
	}
	index := make(map[int32]int32, 64)
	recs := make([]record, 0, 64)
	for i, s := range ls.Pos {
		stamp := int32(i + 1)
		for _, b := range s {
			j, ok := index[b]
			if !ok {
				j = int32(len(recs))
				index[b] = j
				recs = append(recs, record{block: b})
			}
			if r := &recs[j]; r.last != stamp {
				r.last = stamp
				r.pos++
			}
		}
	}
	// Only a block seen in a positive snapshot can become a candidate.
	for i, s := range ls.Neg {
		stamp := int32(len(ls.Pos) + i + 1)
		for _, b := range s {
			if j, ok := index[b]; ok && recs[j].last != stamp {
				recs[j].last = stamp
				recs[j].neg++
			}
		}
	}

	type scored struct {
		block int32
		score float64
	}
	var cands []scored
	for _, r := range recs {
		pf := float64(r.pos) / float64(len(ls.Pos))
		if r.block == site || pf < opt.MinRecall {
			continue
		}
		nf := 0.0
		if len(ls.Neg) > 0 {
			nf = float64(r.neg) / float64(len(ls.Neg))
		}
		cands = append(cands, scored{r.block, pf - nf})
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
	pool := make([]int32, len(cands))
	for i, c := range cands {
		pool[i] = c.block
	}
	return pool
}

// poolMasks returns, per snapshot, the mask of the pool blocks it holds.
func poolMasks(snaps [][]int32, pool []int32) []uint64 {
	masks := make([]uint64, len(snaps))
	for i, s := range snaps {
		for _, b := range s {
			for j, p := range pool {
				if b == p {
					masks[i] |= 1 << j
					break
				}
			}
		}
	}
	return masks
}

// fracMatching returns the fraction of masks holding every bit of set.
func fracMatching(masks []uint64, set uint64) float64 {
	if len(masks) == 0 {
		return 0
	}
	n := 0
	for _, m := range masks {
		if m&set == set {
			n++
		}
	}
	return float64(n) / float64(len(masks))
}
