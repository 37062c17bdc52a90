// Package workload generates and executes the synthetic data-center
// applications that stand in for the paper's nine real workloads (see
// DESIGN.md §1 for the substitution argument).
//
// Each workload is a concrete program with the control-flow shape of a
// request-processing service:
//
//	driver loop:
//	  recv()            — shared, hot
//	  parse()           — router + per-request-type parse snippet; this is
//	                      where the request type first leaves a signature in
//	                      the branch history (the basis of I-SPY's contexts)
//	  middle()          — shared, hot, sizeable; the 27–200-cycle prefetch
//	                      window before a handler miss lands here
//	  dispatch()        — router that calls the per-type handler
//	  handler_t()       — large, per-type, cold for unpopular types; the
//	                      dominant source of I-cache misses
//	  logreq()          — shared, hot
//
// Handlers are big enough that the total text footprint exceeds the 32 KiB
// L1 I-cache by 1–2 orders of magnitude; unpopular request types therefore
// miss on (a subset of) their handler lines every time they occur, and those
// misses are predictable from the parse-time context — exactly the structure
// I-SPY exploits. Cold-path diamonds inside handlers make the missing lines
// non-contiguous within small windows, which is what gives prefetch
// coalescing (and the paper's Non-contiguous-8 beats Contiguous-8 result)
// its advantage.
package workload

import (
	"fmt"

	"ispy/internal/isa"
)

// FlowKind describes how control leaves a basic block.
type FlowKind uint8

// Flow kinds.
const (
	// FlowFall falls through to Succ[0].
	FlowFall FlowKind = iota
	// FlowJump jumps unconditionally to Succ[0].
	FlowJump
	// FlowCond branches to Succ[0] with probability TakenProb, else Succ[1].
	FlowCond
	// FlowDispatch branches to Succ[0] iff the current request type equals
	// MatchVal, else to Succ[1]. Dispatch blocks give routers deterministic,
	// request-dependent control flow.
	FlowDispatch
	// FlowCall calls the function whose entry block is CallEntry and resumes
	// at Succ[0] when it returns.
	FlowCall
	// FlowRet returns to the block on top of the call stack.
	FlowRet
	// FlowEndRequest marks the end of one request: the executor samples a
	// new request type and continues at Succ[0] (the driver entry).
	FlowEndRequest
	// FlowIndirectCall calls through a per-request-type table (an indirect
	// call: Workload.IndirectTargets[block][reqType]) and resumes at
	// Succ[0]. This is how the shared engine reaches type-specific
	// fragments without leaving a type signature of its own — the pattern
	// that makes contexts (not sites) the only accurate predictor.
	FlowIndirectCall
)

// BlockInfo is the dynamic-control-flow side of a basic block (the static
// side lives in isa.Block, indexed by the same ID).
type BlockInfo struct {
	Kind      FlowKind
	Succ      [2]int32
	TakenProb float32
	MatchVal  int32
	CallEntry int32
}

// Workload couples a generated program with its control-flow behavior and
// the request-type model.
type Workload struct {
	// Name is the app preset name ("wordpress", …).
	Name string
	// Prog is the static program. Prefetch-injection passes run on clones of
	// Prog; Flow is shared because injection never alters control flow.
	Prog *isa.Program
	// Flow is indexed by block ID.
	Flow []BlockInfo
	// Entry is the driver's entry block.
	Entry int
	// NumTypes is the number of request types.
	NumTypes int
	// Params echoes the generation parameters.
	Params Params
	// HandlerEntry maps request type → entry block of its handler chain
	// (exported for tests and diagnostics).
	HandlerEntry []int
	// IndirectTargets maps an indirect-call block to its per-type callee
	// entry blocks (the engine's fragment tables).
	IndirectTargets map[int32][]int32
}

// Validate checks cross-structure invariants between Prog and Flow.
func (w *Workload) Validate() error {
	if err := w.Prog.Validate(); err != nil {
		return err
	}
	if len(w.Flow) != len(w.Prog.Blocks) {
		return fmt.Errorf("workload %s: flow size %d != blocks %d", w.Name, len(w.Flow), len(w.Prog.Blocks))
	}
	for i, f := range w.Flow {
		check := func(b int32) error {
			if b < 0 || int(b) >= len(w.Flow) {
				return fmt.Errorf("workload %s: block %d references invalid block %d", w.Name, i, b)
			}
			return nil
		}
		switch f.Kind {
		case FlowFall, FlowJump, FlowEndRequest:
			if err := check(f.Succ[0]); err != nil {
				return err
			}
		case FlowCond, FlowDispatch:
			if err := check(f.Succ[0]); err != nil {
				return err
			}
			if err := check(f.Succ[1]); err != nil {
				return err
			}
		case FlowCall:
			if err := check(f.Succ[0]); err != nil {
				return err
			}
			if err := check(f.CallEntry); err != nil {
				return err
			}
		case FlowRet:
			// no successors
		case FlowIndirectCall:
			if err := check(f.Succ[0]); err != nil {
				return err
			}
			tbl := w.IndirectTargets[int32(i)]
			if len(tbl) != w.NumTypes {
				return fmt.Errorf("workload %s: indirect call %d has %d targets, want %d", w.Name, i, len(tbl), w.NumTypes)
			}
			for _, t := range tbl {
				if err := check(t); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("workload %s: block %d has unknown flow kind %d", w.Name, i, f.Kind)
		}
	}
	if w.Entry < 0 || w.Entry >= len(w.Flow) {
		return fmt.Errorf("workload %s: invalid entry %d", w.Name, w.Entry)
	}
	return nil
}

// Params controls workload generation. The nine presets in presets.go pick
// values that reproduce each application's characteristics (footprint,
// frontend-boundness, spatial locality).
type Params struct {
	// Name of the app.
	Name string
	// Seed drives all generation randomness.
	Seed uint64

	// NumTypes is the number of request types (each with its own handler).
	NumTypes int
	// TypeSkew is the Zipf exponent of the request-type popularity
	// distribution (0 = uniform).
	TypeSkew float64
	// RoundRobin makes the executor cycle request types deterministically
	// instead of sampling (verilator's phase loop).
	RoundRobin bool

	// HandlerFuncs is the number of functions per handler chain.
	HandlerFuncs int
	// HandlerBlocks is the mean number of body segments per handler function.
	HandlerBlocks int
	// BlockInstrs is the mean number of instructions per basic block.
	BlockInstrs int
	// ColdFrac is the probability that a body segment is a hot/cold diamond
	// whose cold side is rarely executed (drives non-contiguous misses).
	ColdFrac float64
	// ColdTakenProb is the probability the cold side executes.
	ColdTakenProb float64
	// LoopFrac is the probability that a body segment is a self-loop block.
	LoopFrac float64
	// LoopBackProb is the back-edge probability (mean trips = 1/(1-p)).
	LoopBackProb float64

	// SharedHelpers is the number of shared helper functions handlers call.
	SharedHelpers int
	// SharedHelperBlocks is their mean body-segment count.
	SharedHelperBlocks int
	// HelperCallFrac is the probability a handler segment calls a shared
	// helper.
	HelperCallFrac float64

	// RecvBlocks, MiddleBlocks, LogBlocks size the shared per-request
	// functions; MiddleBlocks controls the cycle distance between the
	// type signal (parse) and the handler (the prefetch window).
	RecvBlocks, MiddleBlocks, LogBlocks int
	// ParseBlocks is the mean body-segment count of per-type parse snippets.
	ParseBlocks int

	// EngineSlots is the number of indirect-dispatch slots in the shared
	// engine each handler drives (0 disables the engine). Each slot fires
	// with probability EngineSlotProb and indirect-calls the request type's
	// fragment for that slot — cold, type-specific code reachable only
	// through hot shared predecessors: the paper's context-dependent miss
	// structure (§II-C).
	EngineSlots int
	// EngineSlotProb is each slot's firing probability.
	EngineSlotProb float64
	// EngineBlocks is the number of shared engine body segments between
	// slots.
	EngineBlocks int
	// FragmentBlocks is the mean body-segment count of each fragment.
	FragmentBlocks int

	// BackendCPI is the extra backend cycles charged per instruction by the
	// simulator (models data stalls and dependencies; see sim.Config).
	BackendCPI float64
}

// setDefaults fills zero fields with sane values so tests can build partial
// Params. It is idempotent: Generate applies it to parameters LookupParams
// already defaulted.
func (p *Params) setDefaults() {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.NumTypes, 16)
	def(&p.HandlerFuncs, 5)
	def(&p.HandlerBlocks, 10)
	def(&p.BlockInstrs, 12)
	def(&p.SharedHelpers, 4)
	def(&p.SharedHelperBlocks, 6)
	def(&p.RecvBlocks, 6)
	def(&p.MiddleBlocks, 8)
	def(&p.LogBlocks, 5)
	def(&p.ParseBlocks, 3)
	deff(&p.TypeSkew, 1.0)
	deff(&p.ColdFrac, 0.25)
	deff(&p.ColdTakenProb, 0.06)
	deff(&p.LoopFrac, 0.12)
	deff(&p.LoopBackProb, 0.6)
	deff(&p.HelperCallFrac, 0.15)
	deff(&p.BackendCPI, 0.5)
	if p.EngineSlots > 0 {
		deff(&p.EngineSlotProb, 0.6)
		def(&p.EngineBlocks, 2)
		def(&p.FragmentBlocks, 3)
	}
	if p.Name == "" {
		p.Name = "synthetic"
	}
	if p.Seed == 0 {
		p.Seed = 0x15b3
	}
}
