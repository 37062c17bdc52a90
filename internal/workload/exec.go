// Execution: the deterministic interpreter that turns a Workload plus an
// Input into an unbounded dynamic basic-block stream for the simulator.
package workload

import (
	"fmt"

	"ispy/internal/rng"
)

// Input describes one run-time load applied to a workload: the request-type
// mix and the randomness seed. Fig. 16 evaluates I-SPY on inputs that differ
// from the profiled one; DriftedInputs produces such variants.
type Input struct {
	// Name labels the input in reports ("profiled", "drift-rotate", …).
	Name string
	// Seed drives branch outcomes and request sampling.
	Seed uint64
	// TypeWeights is the unnormalized request-type popularity vector; nil
	// derives Zipf(TypeSkew) weights from the workload parameters.
	TypeWeights []float64
}

// DefaultInput returns the input the profiling run uses.
func DefaultInput(w *Workload) Input { return DefaultInputFor(w.Params) }

// DefaultInputFor is DefaultInput for the workload Generate(p) returns,
// without generating it.
func DefaultInputFor(p Params) Input {
	p.setDefaults()
	return Input{Name: "profiled", Seed: p.Seed ^ 0xdeadbeefcafe}
}

// DriftedInputs returns n test inputs that progressively diverge from the
// profiled distribution: rotated popularity ranks, flattened and sharpened
// skew, and a reversed ranking. Index 0 is always the profiled input itself.
func DriftedInputs(w *Workload, n int) []Input { return DriftedInputsFor(w.Params, n) }

// DriftedInputsFor is DriftedInputs for the workload Generate(p) returns,
// without generating it.
func DriftedInputsFor(p Params, n int) []Input {
	p.setDefaults()
	base := rng.ZipfWeights(p.NumTypes, p.TypeSkew)
	rotate := func(k int) []float64 {
		out := make([]float64, len(base))
		for i := range base {
			out[i] = base[(i+k)%len(base)]
		}
		return out
	}
	reverse := func() []float64 {
		out := make([]float64, len(base))
		for i := range base {
			out[i] = base[len(base)-1-i]
		}
		return out
	}
	variants := []Input{
		DefaultInputFor(p),
		{Name: "input-B (rotated ranks)", Seed: p.Seed ^ 0x1111, TypeWeights: rotate(p.NumTypes / 4)},
		{Name: "input-C (flatter skew)", Seed: p.Seed ^ 0x2222, TypeWeights: rng.ZipfWeights(p.NumTypes, p.TypeSkew*0.5)},
		{Name: "input-D (sharper skew)", Seed: p.Seed ^ 0x3333, TypeWeights: rng.ZipfWeights(p.NumTypes, p.TypeSkew*1.5)},
		{Name: "input-E (reversed ranks)", Seed: p.Seed ^ 0x4444, TypeWeights: reverse()},
	}
	for len(variants) < n {
		k := len(variants)
		variants = append(variants, Input{
			Name:        fmt.Sprintf("input-%c (rotated %d)", 'A'+k, k),
			Seed:        p.Seed ^ uint64(k)*0x5555,
			TypeWeights: rotate(k),
		})
	}
	return variants[:n]
}

// Executor walks a workload's CFG under an input, producing the dynamic
// basic-block stream. It is an infinite source: the simulator decides when
// to stop (instruction budget).
type Executor struct {
	w         *Workload
	r         *rng.Rand
	typeCat   *rng.Categorical
	cur       int32
	stack     []int32
	reqType   int32
	takenInto bool // the edge into cur was a taken control transfer
	lastTaken bool // the edge into the block Next just returned
	// Requests counts completed requests.
	Requests uint64
	// TypeCounts counts requests per type (diagnostics, tests).
	TypeCounts []uint64
}

// NewExecutor builds an executor for workload w under input in.
func NewExecutor(w *Workload, in Input) *Executor {
	weights := in.TypeWeights
	if weights == nil {
		weights = rng.ZipfWeights(w.NumTypes, w.Params.TypeSkew)
	}
	if len(weights) != w.NumTypes {
		panic(fmt.Sprintf("workload: input has %d type weights, workload has %d types", len(weights), w.NumTypes))
	}
	e := &Executor{
		w:          w,
		r:          rng.New(in.Seed),
		typeCat:    rng.NewCategorical(weights),
		cur:        int32(w.Entry),
		stack:      make([]int32, 0, 64),
		TypeCounts: make([]uint64, w.NumTypes),
		takenInto:  true, // program entry behaves like a jump target
	}
	e.sampleType()
	return e
}

func (e *Executor) sampleType() {
	if e.w.Params.RoundRobin {
		e.reqType = int32(e.Requests % uint64(e.w.NumTypes))
	} else {
		e.reqType = int32(e.typeCat.Sample(e.r))
	}
	e.TypeCounts[e.reqType]++
}

// ReqType returns the type of the request currently being processed.
func (e *Executor) ReqType() int { return int(e.reqType) }

// Next returns the ID of the next basic block to execute and advances the
// machine past it. LastWasTaken reports how control reached the returned
// block.
func (e *Executor) Next() int {
	id := e.cur
	e.lastTaken = e.takenInto
	e.advance()
	return int(id)
}

// NextN fills ids and taken with the next min(len(ids), len(taken)) blocks
// of the stream — taken[i] reports how control reached ids[i] — and returns
// the count filled. It is exactly equivalent to that many Next calls (with
// LastWasTaken after each) but costs one call: the simulator's batched hot
// loop (sim.BatchSource) uses it to amortize interface dispatch.
func (e *Executor) NextN(ids []int32, taken []bool) int {
	n := len(ids)
	if len(taken) < n {
		n = len(taken)
	}
	for i := 0; i < n; i++ {
		ids[i] = e.cur
		taken[i] = e.takenInto
		e.advance()
	}
	if n > 0 {
		e.lastTaken = taken[n-1]
	}
	return n
}

// advance moves the machine past the current block, choosing the successor
// and recording whether the edge into it is a taken control transfer.
func (e *Executor) advance() {
	id := e.cur
	f := &e.w.Flow[id]
	switch f.Kind {
	case FlowFall:
		e.cur = f.Succ[0]
		e.takenInto = false
	case FlowJump:
		e.cur = f.Succ[0]
		e.takenInto = true
	case FlowCond:
		if e.r.Bool(float64(f.TakenProb)) {
			e.cur = f.Succ[0]
			e.takenInto = true
		} else {
			e.cur = f.Succ[1]
			e.takenInto = false
		}
	case FlowDispatch:
		match := false
		if div := f.GroupDiv(); div > 0 {
			match = int(e.reqType)/div == int(f.MatchVal)
		} else {
			match = e.reqType == f.MatchVal
		}
		if match {
			e.cur = f.Succ[0]
			e.takenInto = true
		} else {
			e.cur = f.Succ[1]
			e.takenInto = false
		}
	case FlowCall:
		e.stack = append(e.stack, f.Succ[0]) //ispy:alloc call-stack growth; capacity amortizes during warmup
		e.cur = f.CallEntry
		e.takenInto = true
	case FlowIndirectCall:
		e.stack = append(e.stack, f.Succ[0])       //ispy:alloc call-stack growth; capacity amortizes during warmup
		e.cur = e.w.IndirectTargets[id][e.reqType] //ispy:alloc read-only indirect-target table lookup, no allocation
		e.takenInto = true
	case FlowRet:
		if len(e.stack) == 0 {
			// Unreachable by construction (the driver never returns); keep
			// the executor total anyway.
			e.cur = int32(e.w.Entry)
		} else {
			e.cur = e.stack[len(e.stack)-1]
			e.stack = e.stack[:len(e.stack)-1]
		}
		e.takenInto = true
	case FlowEndRequest:
		e.Requests++
		e.sampleType()
		e.cur = f.Succ[0]
		e.takenInto = true
	default:
		panic(fmt.Sprintf("workload: block %d has invalid flow kind %d", id, f.Kind))
	}
}

// LastWasTaken reports whether the block most recently returned by Next was
// reached via a taken control transfer (branch/jump/call/return). Real LBRs
// record only taken branches; the simulator uses this to decide LBR pushes.
func (e *Executor) LastWasTaken() bool { return e.lastTaken }

// Depth returns the current call-stack depth (tests).
func (e *Executor) Depth() int { return len(e.stack) }
