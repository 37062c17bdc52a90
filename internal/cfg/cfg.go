// Package cfg holds the miss-annotated dynamic control-flow graph that
// I-SPY's offline analysis consumes (§II-A, Fig. 2).
//
// Nodes are basic blocks; weighted edges are observed dynamic transitions
// (from the LBR analogue); each block carries its execution count and
// average dwell cycles (the LBR's cycle information, which lets the analysis
// measure prefetch distances in cycles without the per-application IPC
// heuristic AsmDB needs, §IV); and misses are aggregated per (block,
// line-delta) site with a bounded reservoir of 32-predecessor history
// samples (the PEBS analogue).
//
// A history stores its LBR records' cycle and instruction counts, not their
// distances to the miss, so the histories of one profiling run can share
// records: each is a read-only window into one record of the run's LBR
// entries (profile.Collect). A decoded profile's histories share nothing.
package cfg

import (
	"fmt"
	"sort"
)

// LineKey identifies a missing instruction cache line position
// layout-independently: the block whose fetch missed and the byte offset of
// the line start relative to the block start (negative when the line begins
// in the previous block's bytes). Keeping targets symbolic lets the
// injection pass re-lay-out the program (code bloat shifts addresses) and
// still prefetch the right code.
type LineKey struct {
	Block int32
	Delta int32
}

// String renders the key for diagnostics.
func (k LineKey) String() string { return fmt.Sprintf("b%d%+d", k.Block, k.Delta) }

// PredEntry is one LBR record inside a miss history: the block that was
// entered and, mod 2^32, the cycle and the retired-instruction count at its
// entry. Its distances to the miss are its sample's CycleDelta and
// InstrDelta.
type PredEntry struct {
	Block  int32
	Cycle  uint32
	Instrs uint32
}

// Pred returns the record of block at the given distances in a history
// anchored at 0, one whose Sample has Cycle and Instrs 0: the form a
// decoded history takes.
func Pred(block int32, cycleDelta, instrDelta uint32) PredEntry {
	return PredEntry{Block: block, Cycle: -cycleDelta, Instrs: -instrDelta}
}

// Sample is one PEBS-style miss sample: the (up to) 32 most recent
// predecessor blocks, oldest first, and the counts their distances are
// measured from.
type Sample struct {
	// Preds is the history, oldest first, with cap == len. It is read-only:
	// the histories of a collected profile are windows into one shared
	// record, so a write through one would change others.
	Preds []PredEntry
	// Cycle is the miss's cycle, mod 2^32.
	Cycle uint32
	// Instrs is the newest record's retired-instruction count, mod 2^32.
	Instrs uint32
}

// CycleDelta returns the true cycle distance from e's entry to the miss
// (LBR cycle info). The counts wrap, so the uint32 difference is the
// distance mod 2^32, exactly what a uint32 distance holds.
func (s Sample) CycleDelta(e PredEntry) uint32 { return s.Cycle - e.Cycle }

// InstrDelta returns the retired-instruction distance from e's entry to the
// newest record's; AsmDB's IPC heuristic estimates cycles from it (§IV).
func (s Sample) InstrDelta(e PredEntry) uint32 { return s.Instrs - e.Instrs }

// MissSite aggregates the misses observed for one line.
type MissSite struct {
	Key LineKey
	// Count is the total observed misses of this line.
	Count uint64
	// Samples is a bounded reservoir of miss histories.
	Samples []Sample
}

// Graph is the miss-annotated dynamic CFG.
type Graph struct {
	// NumBlocks is the static block count.
	NumBlocks int
	// Exec counts executions per block.
	Exec []uint64
	// Cycles accumulates the cycles attributed to each block (entry-to-next-
	// entry deltas); Cycles[i]/Exec[i] is the block's average dwell.
	Cycles []float64
	// Edges holds observed successor counts per block.
	Edges []map[int32]uint64
	// Sites maps each missing line to its aggregate.
	Sites map[LineKey]*MissSite
	// TotalMisses is the sum of all site counts.
	TotalMisses uint64
}

// NewGraph returns an empty graph over numBlocks blocks.
func NewGraph(numBlocks int) *Graph {
	return &Graph{
		NumBlocks: numBlocks,
		Exec:      make([]uint64, numBlocks),
		Cycles:    make([]float64, numBlocks),
		Edges:     make([]map[int32]uint64, numBlocks),
		Sites:     make(map[LineKey]*MissSite),
	}
}

// EdgeCounts accumulates observed transitions per block in small slices,
// which is cheaper per transition than a map update, until Fill writes them
// into a graph's Edges.
type EdgeCounts [][]edgeCount

// edgeCount counts one dynamic transition target of a block.
type edgeCount struct {
	to int32
	n  uint64
}

// NewEdgeCounts returns an empty accumulator over numBlocks blocks.
func NewEdgeCounts(numBlocks int) EdgeCounts { return make(EdgeCounts, numBlocks) }

// Add records one dynamic transition from → to.
func (e EdgeCounts) Add(from, to int32) {
	ss := e[from]
	for i := range ss {
		if ss[i].to == to {
			ss[i].n++
			return
		}
	}
	e[from] = append(ss, edgeCount{to, 1})
}

// Fill sets g.Edges from the accumulated counts; a block with no observed
// transition keeps a nil map.
func (e EdgeCounts) Fill(g *Graph) {
	for from, ss := range e {
		if len(ss) == 0 {
			continue
		}
		m := make(map[int32]uint64, len(ss))
		for _, s := range ss {
			m[s.to] = s.n
		}
		g.Edges[from] = m
	}
}

// Site returns (creating if needed) the aggregate for key.
func (g *Graph) Site(key LineKey) *MissSite {
	s := g.Sites[key]
	if s == nil {
		s = &MissSite{Key: key}
		g.Sites[key] = s
	}
	return s
}

// SortedSites returns all miss sites ordered by descending count (ties by
// key for determinism).
func (g *Graph) SortedSites() []*MissSite {
	out := make([]*MissSite, 0, len(g.Sites))
	for _, s := range g.Sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Key.Block != out[j].Key.Block {
			return out[i].Key.Block < out[j].Key.Block
		}
		return out[i].Key.Delta < out[j].Key.Delta
	})
	return out
}
