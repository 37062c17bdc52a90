// The profiling run's trace: a compact record of its measured region that
// the labeling pass replays instead of simulating the program again, as
// the paper derives the labeled contexts from the same LBR+PEBS trace as
// the miss profile.
//
// Only what the workload's executor cannot regenerate is recorded: the
// cycle of every block entry and, per L1I miss, its cycle and line. The
// events are uvarints in the order the simulator reported them. The low
// bit of each tells a miss (1) from a block entry (0), and the rest is the
// cycles since the previous event; a miss is followed by one more uvarint,
// the missing line's byte offset from its block's start plus
// isa.LineSize-1. Most events take one byte. Block IDs and taken edges,
// which decide the LBR's contents, come from re-running the executor; the
// regenerated stream must agree with the recording on the first measured
// block, the measured block count and the LBR's final contents, or the
// replay panics.
package profile

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ispy/internal/isa"
	"ispy/internal/lbr"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// trace is one simulation's measured region, as the labeling pass needs it.
type trace struct {
	// cfg is the configuration the run simulated (Ideal off).
	cfg    sim.Config
	events []byte
	// first is the ID of the first measured block, blocks the number of
	// measured blocks, and lbr the LBR's block IDs after the last one,
	// newest first.
	first  int32
	blocks uint64
	lbr    []int32
}

// recorder builds a trace from a run's hook events.
type recorder struct {
	events []byte
	last   uint64 // cycle of the previous event
	blocks uint64
	first  int32
	l      *lbr.LBR // the run's LBR, read once the run is over
}

// block records a measured block entry.
func (r *recorder) block(block int, cycle uint64, l *lbr.LBR) {
	if r.blocks == 0 {
		r.first, r.last, r.l = int32(block), cycle, l
	}
	r.blocks++
	r.put((cycle - r.last) << 1)
	r.last = cycle
}

// miss records an L1I miss of the line at byte offset delta of block. The
// offset is at least -(isa.LineSize-1), and below isa.LineSize+1 for a
// block's first two lines, so it is stored plus isa.LineSize-1: one byte.
func (r *recorder) miss(_ int, delta int32, cycle uint64, _ *lbr.LBR) {
	r.put((cycle-r.last)<<1 | 1)
	r.put(uint64(delta + isa.LineSize - 1))
	r.last = cycle
}

func (r *recorder) put(v uint64) {
	if v < 0x80 {
		r.events = append(r.events, byte(v))
		return
	}
	r.events = binary.AppendUvarint(r.events, v)
}

// finish returns the trace of the run, simulated under scfg, once it is
// over.
func (r *recorder) finish(scfg sim.Config) *trace {
	t := &trace{cfg: scfg, events: r.events, first: r.first, blocks: r.blocks}
	if r.l != nil {
		t.lbr = r.l.Blocks(nil)
	}
	return t
}

// record simulates w under in and scfg with only the recorder attached:
// the trace of a profile that has none, or of another configuration.
func record(w *workload.Workload, in workload.Input, scfg sim.Config) *trace {
	var rec recorder
	sim.Run(w.Prog, workload.NewExecutor(w, in), scfg, &sim.Hooks{OnBlock: rec.block, OnMiss: rec.miss})
	return rec.finish(scfg)
}

// replayBatch is how many blocks the replay pulls from the executor at once.
const replayBatch = 256

// replay regenerates the traced run's block stream from w's executor under
// in and feeds lb every measured block entry and miss, with its recorded
// cycle, in the order the simulator reported them. It panics when the
// stream disagrees with the recording.
func (t *trace) replay(w *workload.Workload, in workload.Input, lb *labeler) {
	measure := t.cfg.MaxInstrs
	if measure == 0 {
		measure = sim.Default().MaxInstrs
	}
	// The budgets count workload instructions per block, as sim.Run does.
	nBase := make([]uint32, len(w.Prog.Blocks))
	for i := range w.Prog.Blocks {
		for _, ins := range w.Prog.Blocks[i].Instrs {
			if !ins.Kind.IsPrefetch() {
				nBase[i]++
			}
		}
	}
	ex := workload.NewExecutor(w, in)
	var ids [replayBatch]int32
	var taken [replayBatch]bool
	// Over the warmup the LBR is a ring of the taken blocks' IDs, where
	// ring[(pushes-1)%lbr.Depth] is the newest. Over the measured region it
	// is hist[top:top+n], the whole history newest first, so a snapshot is
	// a subslice that no later push overwrites.
	var ring [lbr.Depth]int32
	var pushes uint64
	var hist []int32
	top := 0
	measuring, budget := false, t.cfg.WarmupInstrs
	start := func() {
		measuring, budget = true, measure
		hist = make([]int32, t.blocks+lbr.Depth)
		top = len(hist)
		for i := pushes - min(pushes, lbr.Depth); i < pushes; i++ {
			top--
			hist[top] = ring[i%lbr.Depth]
		}
	}
	if budget == 0 {
		start()
	}
	var base, blocks, cycle uint64
	ev := t.events
	pos := 0
	for {
		n := ex.NextN(ids[:], taken[:])
		for k := 0; k < n; k++ {
			if base >= budget {
				if measuring {
					t.check(blocks, pos, hist[top:top+min(len(hist)-top, lbr.Depth)])
					lb.finish(hist)
					return
				}
				start()
				base = 0
			}
			id := ids[k]
			base += uint64(nBase[id])
			if !measuring {
				if taken[k] {
					ring[pushes%lbr.Depth] = id
					pushes++
				}
				continue
			}
			if taken[k] {
				if top == 0 {
					t.diverged(blocks, "a taken branch")
				}
				top--
				hist[top] = id
			}
			v, p := uvarint(ev, pos)
			if p < 0 || v&1 != 0 || (blocks == 0 && id != t.first) {
				t.diverged(blocks, "a block entry")
			}
			pos = p
			cycle += v >> 1
			lb.block(id, cycle, top)
			// The block's misses follow its entry.
			for pos < len(ev) && ev[pos]&1 != 0 {
				v, p := uvarint(ev, pos)
				delta, p := uvarint(ev, p)
				if p < 0 {
					t.diverged(blocks, "a miss")
				}
				pos = p
				cycle += v >> 1
				lb.miss(id, int32(delta)-(isa.LineSize-1), cycle)
			}
			blocks++
		}
	}
}

// check requires the end of the regenerated measured region, with the
// LBR's final contents, to be the recording's.
func (t *trace) check(blocks uint64, pos int, final []int32) {
	if blocks != t.blocks || pos != len(t.events) {
		t.diverged(blocks, "the end of the measured region")
	}
	if !slices.Equal(final, t.lbr) {
		t.diverged(blocks, "the final LBR contents")
	}
}

func (t *trace) diverged(block uint64, what string) {
	panic(fmt.Sprintf("profile: the replayed block stream disagrees with the recorded trace (%d measured blocks recorded) at %s of measured block %d",
		t.blocks, what, block))
}

// uvarint decodes the uvarint at buf[pos:], returning it and the position
// after it, or a negative position when buf holds no complete uvarint there.
func uvarint(buf []byte, pos int) (uint64, int) {
	if pos < 0 || pos >= len(buf) {
		return 0, -1
	}
	if b := buf[pos]; b < 0x80 {
		return uint64(b), pos + 1
	}
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// TraceBytes returns the size of the trace p holds for Label, or 0 when it
// holds none.
func (p *Profile) TraceBytes() int {
	if p.trace == nil {
		return 0
	}
	return len(p.trace.events) + 4*len(p.trace.lbr)
}
