// Miss-context discovery (§III-A, Fig. 6): given labeled LBR snapshots from
// executions of an injection site, find the combination of predictor blocks
// whose presence maximizes P(miss | context) by Bayes' rule, subject to a
// recall floor so the condition still fires on most miss-leading paths.
package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

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
// reads ls: concurrent variant builds share one labeled set. It is the
// one-set case of the per-site discovery BuildFromPrepared runs.
func DiscoverContext(ls *profile.LabeledSet, site int32, opt Options) ContextResult {
	ix := indexes.Get().(*siteIndex)
	defer ix.release()
	ix.index([]*profile.LabeledSet{ls})
	return ix.discover(0, site, opt.withDefaults())
}

// indexes recycles site indexes, whose block table spans the program.
var indexes = sync.Pool{New: func() any { return new(siteIndex) }}

// siteIndex holds the labeled evidence of one site's targets as bitsets.
// Every block of the site's snapshots gets a dense local ID, and each
// distinct snapshot becomes a bitset over the local IDs once, however many
// targets' reservoirs hold it. Discovery then counts blocks and builds pool
// masks from bitsets, without hashing a block ID. One index is reused
// across the sites of a build.
type siteIndex struct {
	local  []int32 // block ID → 1 + local ID, or 0
	blocks []int32 // local ID → block ID
	// shared maps a snapshot slice that several targets hold to its index.
	shared map[snapKey]int32
	snaps  [][]int32
	words  int      // bitset words per snapshot
	bits   []uint64 // snapshot k's bitset is bits[k*words:][:words]
	sets   []*profile.LabeledSet
	// refs holds, per set, the indexes of its Pos then its Neg snapshots;
	// set i's start at refs[from[i]].
	refs []int32
	from []int
	// Per-target scratch: positive then negative block counts, candidates.
	counts []int32
	cands  []scored
}

// scored is a candidate predictor and its rank score.
type scored struct {
	block, local int32
	score        float64
}

// release drops the index's references to evidence and returns it to the
// pool.
func (ix *siteIndex) release() {
	clear(ix.snaps[:cap(ix.snaps)])
	clear(ix.shared)
	ix.sets = nil
	indexes.Put(ix)
}

// snapKey identifies a snapshot slice by its backing array and length.
type snapKey struct {
	first *int32
	n     int
}

// index loads the evidence of sets, which are all labeled at one site.
// Snapshots held in the same slice convert once: the labeling pass gives
// every target of a site execution the same slice. One set holds each
// execution once, so its snapshots need no such check.
func (ix *siteIndex) index(sets []*profile.LabeledSet) {
	dedupe := len(sets) > 1
	for _, b := range ix.blocks {
		ix.local[b] = 0
	}
	ix.blocks, ix.snaps, ix.refs, ix.from = ix.blocks[:0], ix.snaps[:0], ix.refs[:0], ix.from[:0]
	ix.sets = sets
	if dedupe && ix.shared == nil {
		ix.shared = make(map[snapKey]int32)
	}
	clear(ix.shared)
	for _, ls := range sets {
		ix.from = append(ix.from, len(ix.refs))
		if ls == nil {
			continue
		}
		for _, side := range [2][][]int32{ls.Pos, ls.Neg} {
			for _, snap := range side {
				ix.refs = append(ix.refs, ix.snapshot(snap, dedupe))
			}
		}
	}
	ix.from = append(ix.from, len(ix.refs))

	ix.words = (len(ix.blocks) + 63) / 64
	n := len(ix.snaps) * ix.words
	if cap(ix.bits) < n {
		ix.bits = make([]uint64, n)
	}
	ix.bits = ix.bits[:n]
	clear(ix.bits)
	for k, snap := range ix.snaps {
		row := ix.row(int32(k))
		for _, b := range snap {
			l := ix.local[b] - 1
			row[l>>6] |= 1 << (l & 63)
		}
	}
}

// snapshot numbers snap's blocks and returns its index.
func (ix *siteIndex) snapshot(snap []int32, dedupe bool) int32 {
	k := int32(len(ix.snaps))
	if dedupe && len(snap) > 0 {
		key := snapKey{&snap[0], len(snap)}
		if j, ok := ix.shared[key]; ok {
			return j
		}
		ix.shared[key] = k
	}
	for _, b := range snap {
		if int(b) >= len(ix.local) {
			ix.local = append(ix.local, make([]int32, int(b)+1-len(ix.local))...)
		}
		if ix.local[b] == 0 {
			ix.blocks = append(ix.blocks, b)
			ix.local[b] = int32(len(ix.blocks))
		}
	}
	ix.snaps = append(ix.snaps, snap)
	return k
}

// row returns snapshot k's bitset.
func (ix *siteIndex) row(k int32) []uint64 {
	return ix.bits[int(k)*ix.words:][:ix.words]
}

// discover runs discovery for set i of the index; opt has its defaults.
//
// The search works on pool masks: bit i of a snapshot's mask says it holds
// the i-th candidate predictor, so "the history contains every block of the
// context" is one mask&set == set test per snapshot.
func (ix *siteIndex) discover(i int, site int32, opt Options) ContextResult {
	ls := ix.sets[i]
	total := ls.PosTotal + ls.NegTotal
	res := ContextResult{}
	if total == 0 || ls.PosTotal == 0 || len(ls.Pos) == 0 {
		return res
	}
	res.Baseline = float64(ls.PosTotal) / float64(total)

	refs := ix.refs[ix.from[i]:ix.from[i+1]]
	pos, neg := refs[:len(ls.Pos)], refs[len(ls.Pos):]
	pool := ix.rankPredictors(pos, neg, site, opt)
	if len(pool) == 0 {
		return res
	}
	posMasks, negMasks := ix.poolMasks(pos, pool), ix.poolMasks(neg, pool)

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
		posFrac := fracMatching(posMasks, len(pos), set)
		effRecall := posFrac + (1-posFrac)*alias
		if effRecall < opt.MinRecall {
			return candidate{}, false
		}
		negFrac := fracMatching(negMasks, len(neg), set)
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
	for i, l := range pool {
		if best.set&(1<<i) != 0 {
			res.Blocks = append(res.Blocks, ix.blocks[l])
		}
	}
	sort.Slice(res.Blocks, func(i, j int) bool { return res.Blocks[i] < res.Blocks[j] })
	return res
}

// rankPredictors returns the candidate pool as local IDs: the blocks other
// than site that appear in at least MinRecall of the positive snapshots,
// ranked by how much more often they appear in positive than negative
// snapshots (ties by block ID) and cut to CandidatePool.
func (ix *siteIndex) rankPredictors(pos, neg []int32, site int32, opt Options) []int32 {
	n := len(ix.blocks)
	if cap(ix.counts) < 2*n {
		ix.counts = make([]int32, 2*n)
	}
	posCount, negCount := ix.counts[:n], ix.counts[n:2*n]
	ix.count(posCount, pos)
	ix.count(negCount, neg)

	cands := ix.cands[:0]
	for l, c := range posCount {
		b := ix.blocks[l]
		pf := float64(c) / float64(len(pos))
		if c == 0 || b == site || pf < opt.MinRecall {
			continue
		}
		nf := 0.0
		if len(neg) > 0 {
			nf = float64(negCount[l]) / float64(len(neg))
		}
		cands = append(cands, scored{b, int32(l), pf - nf})
	}
	ix.cands = cands
	slices.SortFunc(cands, func(a, b scored) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.block, b.block)
	})
	if len(cands) > opt.CandidatePool {
		cands = cands[:opt.CandidatePool]
	}
	pool := make([]int32, len(cands))
	for i, c := range cands {
		pool[i] = c.local
	}
	return pool
}

// count sets counts[l] to the number of the snapshots refs that hold local
// block l.
func (ix *siteIndex) count(counts []int32, refs []int32) {
	clear(counts)
	for _, k := range refs {
		for w, word := range ix.row(k) {
			for ; word != 0; word &= word - 1 {
				counts[w<<6|bits.TrailingZeros64(word)]++
			}
		}
	}
}

// maskCount is a pool mask and the number of snapshots that have it.
type maskCount struct {
	mask uint64
	n    int
}

// poolMasks returns the distinct masks of the pool blocks the snapshots of
// refs hold, each with its number of snapshots.
func (ix *siteIndex) poolMasks(refs []int32, pool []int32) []maskCount {
	masks := make([]uint64, len(refs))
	for i, k := range refs {
		row := ix.row(k)
		for j, l := range pool {
			masks[i] |= (row[l>>6] >> (l & 63) & 1) << j
		}
	}
	slices.Sort(masks)
	var out []maskCount
	for _, m := range masks {
		if len(out) > 0 && out[len(out)-1].mask == m {
			out[len(out)-1].n++
		} else {
			out = append(out, maskCount{m, 1})
		}
	}
	return out
}

// fracMatching returns the fraction of total snapshots whose mask holds
// every bit of set.
func fracMatching(masks []maskCount, total int, set uint64) float64 {
	if total == 0 {
		return 0
	}
	n := 0
	for _, m := range masks {
		if m.mask&set == set {
			n += m.n
		}
	}
	return float64(n) / float64(total)
}
