// Package profile is the online-profiling stage of I-SPY's usage model
// (Fig. 9, step 1): it runs a workload under the simulator and converts the
// LBR/PEBS-analogue event streams into the miss-annotated dynamic CFG the
// offline analysis consumes.
//
// One simulation serves both of the analysis's needs:
//
//   - Collect gathers the baseline profile: execution counts, dynamic edges,
//     per-block cycle costs, and per-line miss aggregates with bounded
//     reservoirs of 32-predecessor miss histories. The histories are
//     read-only windows into one append-only record of the LBR entries the
//     sampled misses saw, which holds each entry once. The same run records
//     a compact trace of its measured region (trace.go).
//   - Label is the context-labeling pass: given the injection sites the
//     analysis chose, it replays the trace, observes every execution of
//     each site, and labels its LBR snapshot positive (a targeted miss
//     followed within the prefetch window) or negative. The labeled sets
//     drive predictor-block ranking and the Bayes-rule P(miss | context)
//     computation of §III-A. As in the paper, the labels come from the
//     profiling run's own trace; a profile without one (loaded from disk,
//     uploaded, or labeled at another budget) is simulated once more to
//     record it.
package profile

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"ispy/internal/cfg"
	"ispy/internal/isa"
	"ispy/internal/lbr"
	"ispy/internal/rng"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// MaxSamplesPerSite bounds each miss site's history reservoir.
const MaxSamplesPerSite = 48

// Profile is the result of the baseline profiling pass.
type Profile struct {
	// Graph is the miss-annotated dynamic CFG.
	Graph *cfg.Graph
	// Stats are the simulator statistics of the profiling run (the
	// "baseline, no prefetching" numbers).
	Stats *sim.Stats
	// AvgHashDensity is the mean fraction of runtime-hash bits set at miss
	// time. The offline analysis uses it to model the counting Bloom
	// filter's aliasing when scoring candidate contexts (a context whose
	// bits are almost always set by unrelated blocks cannot suppress
	// anything at run time).
	AvgHashDensity float64
	// Workload and Input echo what was profiled.
	Workload *workload.Workload
	Input    workload.Input

	// trace is the run's record for Label; nil on a profile that was not
	// collected in this process.
	trace *trace
	// histBytes is the size of the record the miss histories are windows
	// into; 0 on a profile that was not collected in this process.
	histBytes int
	// recorded holds the traces Label recorded, one per configuration, so
	// every later label at that configuration replays instead of
	// simulating. mu guards it and is held while one is recorded: labels
	// that need the same trace at once wait for the one recording.
	mu       sync.Mutex
	recorded []*trace
}

// histChunk is how many LBR entries one chunk of the history record holds.
const histChunk = 1 << 12

// Collect profiles w under input in with simulator configuration scfg (the
// Ideal flag is forced off; profiling an ideal cache observes no misses).
func Collect(w *workload.Workload, in workload.Input, scfg sim.Config) *Profile {
	scfg.Ideal = false
	g := cfg.NewGraph(len(w.Prog.Blocks))
	r := rng.New(w.Params.Seed ^ 0x9e3779b9)

	// Successor counts accumulate per block and fill g.Edges after the run.
	// Miss histories are windows into hist, the record of the LBR entries
	// the sampled misses saw, each appended once, when the first sample
	// that holds it is taken. next is one more than the instruction count
	// of the newest entry recorded (0 before the first). Every block
	// retires at least its terminator, so two pushes never share an
	// instruction count, and the entries at or above next are the ones
	// pushed since the previous sample. (Two pushes can share a cycle.)
	edges := cfg.NewEdgeCounts(len(w.Prog.Blocks))
	var hist []cfg.PredEntry
	var next uint64
	histBytes := 0
	var prevBlock int32 = -1
	var prevCycle uint64
	var densitySum float64
	var densityN uint64
	hashBits := scfg.HashBits
	if hashBits == 0 {
		hashBits = sim.Default().HashBits
	}
	var rec recorder
	hooks := &sim.Hooks{
		OnBlock: func(block int, cycle uint64, l *lbr.LBR) {
			rec.block(block, cycle, l)
			b := int32(block)
			g.Exec[b]++
			if prevBlock >= 0 {
				edges.Add(prevBlock, b)
				g.Cycles[prevBlock] += float64(cycle - prevCycle)
			}
			prevBlock, prevCycle = b, cycle
		},
		OnMiss: func(block int, delta int32, cycle uint64, l *lbr.LBR) {
			rec.miss(block, delta, cycle, l)
			site := g.Site(cfg.LineKey{Block: int32(block), Delta: delta})
			site.Count++
			g.TotalMisses++
			densitySum += float64(bits.OnesCount64(l.RuntimeHash())) / float64(hashBits)
			densityN++
			// Reservoir-sample the history. The reservoir doubles up to
			// MaxSamplesPerSite, where append would double a full 32 to 64.
			idx := len(site.Samples)
			if idx < MaxSamplesPerSite {
				if idx == cap(site.Samples) {
					site.Samples = append(make([]cfg.Sample, 0, min(max(2*idx, 1), MaxSamplesPerSite)), site.Samples...)
				}
				site.Samples = append(site.Samples, cfg.Sample{})
			} else if idx = r.Intn(int(site.Count)); idx >= MaxSamplesPerSite {
				return
			}
			n := l.Len()
			k := 0 // entries pushed since the previous sample
			for k < n && l.At(k).Instrs >= next {
				k++
			}
			if len(hist)+k > cap(hist) {
				// A window lies in one chunk, so the next chunk starts with
				// the recorded entries the LBR still holds.
				hist = append(make([]cfg.PredEntry, 0, histChunk), hist[len(hist)-(n-k):]...)
				histBytes += histChunk * binary.Size(cfg.PredEntry{})
			}
			for i := k - 1; i >= 0; i-- { // oldest first
				e := l.At(i)
				hist = append(hist, cfg.PredEntry{Block: e.Block, Cycle: uint32(e.Cycle), Instrs: uint32(e.Instrs)})
			}
			s := cfg.Sample{Preds: hist[len(hist)-n : len(hist) : len(hist)], Cycle: uint32(cycle)}
			if n > 0 {
				next = l.At(0).Instrs + 1
				s.Instrs = uint32(l.At(0).Instrs)
			}
			site.Samples[idx] = s
		},
	}

	ex := workload.NewExecutor(w, in)
	st := sim.Run(w.Prog, ex, scfg, hooks)
	edges.Fill(g)
	p := &Profile{Graph: g, Stats: st, Workload: w, Input: in, trace: rec.finish(scfg), histBytes: histBytes}
	if densityN > 0 {
		p.AvgHashDensity = densitySum / float64(densityN)
	}
	return p
}

// HistoryBytes returns the size of the record p's miss histories are
// windows into, or 0 for a profile that was not collected in this process.
func (p *Profile) HistoryBytes() int { return p.histBytes }

// ResolveLine maps a symbolic line key to its concrete line address under
// the given (possibly re-laid-out) program.
func ResolveLine(p *isa.Program, key cfg.LineKey) isa.Addr {
	base := p.Blocks[key.Block].Addr
	return isa.LineOf(isa.Addr(int64(base) + int64(key.Delta)))
}
