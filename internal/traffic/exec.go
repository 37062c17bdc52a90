package traffic

import (
	"fmt"

	"ispy/internal/traceio"
	"ispy/internal/workload"
)

// Executor interleaves the tenants' instruction streams according to a
// composed trace: it streams the active tenant's basic blocks (offset into
// the merged program) and context-switches to the next scheduled tenant
// the moment the active one completes a request. The schedule loops when
// the simulator needs more requests than the trace records — tenant
// executor state persists across wraps, so the stream never repeats
// exactly.
//
// It implements sim.BlockSource, sim.TakenReporter, and sim.BatchSource.
// The switch edge into a resumed tenant reports taken (a context switch is
// an indirect transfer), matching how workload executors mark request
// boundaries.
type Executor struct {
	tenants   []tenantExec
	order     []uint32 // trace schedule: tenant index per request
	idx       int      // position in order
	cur       int      // active tenant
	lastTaken bool
}

type tenantExec struct {
	ex   *workload.Executor
	off  int32  // block-ID offset in the merged program
	seen uint64 // ex.Requests at the last boundary check
}

// NewExecutor builds the interleaving executor for a built world and a
// composed trace. The trace must have at least one record and (as
// DecodeScenario guarantees) only in-range tenant indices.
func NewExecutor(w *World, tr *traceio.ScenarioTrace) (*Executor, error) {
	if len(tr.Recs) == 0 {
		return nil, fmt.Errorf("traffic: trace has no records")
	}
	if len(tr.Tenants) != len(w.Tenants) {
		return nil, fmt.Errorf("traffic: trace has %d tenants, world has %d", len(tr.Tenants), len(w.Tenants))
	}
	e := &Executor{
		tenants: make([]tenantExec, len(w.Tenants)),
		order:   make([]uint32, len(tr.Recs)),
	}
	for i, t := range w.Tenants {
		// Each tenant streams from its own seed, decorrelated from the
		// arrival sampler that consumed t.Spec.Seed during composition.
		in := workload.Input{
			Name: "tenant:" + t.Spec.Name,
			Seed: t.Spec.Seed ^ 0x6a09e667f3bcc908, // sqrt(2) salt
		}
		e.tenants[i] = tenantExec{ex: workload.NewExecutor(t.W, in), off: int32(t.BlockOff)}
	}
	for i := range tr.Recs {
		ti := tr.Recs[i].Tenant
		if int(ti) >= len(w.Tenants) {
			return nil, fmt.Errorf("traffic: trace record %d names tenant %d of %d", i, ti, len(w.Tenants))
		}
		e.order[i] = ti
	}
	e.cur = int(e.order[0])
	return e, nil
}

// step emits one block of the interleaved stream.
func (e *Executor) step() (int32, bool) {
	t := &e.tenants[e.cur]
	id := int32(t.ex.Next()) + t.off
	taken := t.ex.LastWasTaken()
	if t.ex.Requests != t.seen {
		// The block just emitted completed a request: switch to the next
		// scheduled tenant (possibly the same one).
		t.seen = t.ex.Requests
		e.idx++
		if e.idx == len(e.order) {
			e.idx = 0
		}
		e.cur = int(e.order[e.idx])
	}
	return id, taken
}

// Next returns the next merged-program block ID (sim.BlockSource).
func (e *Executor) Next() int {
	id, taken := e.step()
	e.lastTaken = taken
	return int(id)
}

// LastWasTaken reports how control reached the block Next just returned
// (sim.TakenReporter).
func (e *Executor) LastWasTaken() bool { return e.lastTaken }

// NextN fills ids and taken with the next batch of the interleaved stream
// (sim.BatchSource); equivalent to that many Next calls.
func (e *Executor) NextN(ids []int32, taken []bool) int {
	n := len(ids)
	if len(taken) < n {
		n = len(taken)
	}
	for i := 0; i < n; i++ {
		ids[i], taken[i] = e.step()
	}
	if n > 0 {
		e.lastTaken = taken[n-1]
	}
	return n
}

// Requests returns the total completed requests across tenants (tests,
// diagnostics).
func (e *Executor) Requests() uint64 {
	var sum uint64
	for i := range e.tenants {
		sum += e.tenants[i].ex.Requests
	}
	return sum
}
