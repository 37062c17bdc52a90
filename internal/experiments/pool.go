// The run-wide worker pool and the cell runner. A pool is one bounded set
// of execution slots that every figure grid's cells share — per-app
// artifacts and per-sweep-point variant runs alike, across every experiment
// of a run — so a 9-app × 6-point sweep saturates all cores instead of
// idling on the longest app, and one experiment's cells fill the slots
// another leaves free. Lab.runCells is the pool's one user: a cell takes a
// slot, runs under Lab.Attempt, which contains its panic or error, and
// frees the slot.
//
// Cancelling the lab's context stops cells that have not started — they
// are counted in the run report as skipped and come back errNotRun, never
// silently dropped — while cells already running stop at their next
// computation (timed, cached.go).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Pool is a bounded set of execution slots. Size ≤ 1 degenerates to strict
// sequential inline execution (deterministic ordering, no goroutines) — the
// behavior of `ispy -jobs 1`.
type Pool struct {
	sem chan struct{} // nil for sequential pools
}

// NewPool creates a pool with the given number of slots.
func NewPool(size int) *Pool {
	if size <= 1 {
		return &Pool{}
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// Size returns the slot count (1 for sequential pools).
func (p *Pool) Size() int {
	if p == nil || p.sem == nil {
		return 1
	}
	return cap(p.sem)
}

// PanicError is a panic converted to an error. Value is the original panic
// value; Stack is the panicking goroutine's stack at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// SkipError reports work that was never started, or stopped at its next
// computation, because the lab's context was cancelled.
type SkipError struct {
	Skipped int
	Cause   error
}

func (e *SkipError) Error() string {
	return fmt.Sprintf("%d queued task(s) skipped: %v", e.Skipped, e.Cause)
}

func (e *SkipError) Unwrap() error { return e.Cause }

// errNotRun is the outcome of a cell that cancellation kept from starting;
// render paths turn it into a SKIPPED row instead of a zero-valued one.
var errNotRun = errors.New("not run (canceled)")

// A cell is one unit of a figure grid: body runs on behalf of app under
// stage.
type cell struct {
	app, stage string
	body       func() error
}

// runCells runs each cell under Attempt, with the cell's own app and stage,
// and returns one outcome per cell: Attempt's error, or errNotRun when
// cancellation kept the cell from starting. Those cells are counted as
// skipped in the run report. Cells start in slice order, each on its own
// goroutine once it holds one of the pool's slots; on a one-slot pool each
// runs inline before the next starts. This is the lab's one fan-out: every
// figure grid, SweepGrid, ForEachApp and Warm run through it, and
// concurrent calls (the experiments of one run) share the slots.
//
// A cell must not call runCells: it holds its slot while it waits, so
// nested calls could take every slot and wait for a free one forever.
func (l *Lab) runCells(cells []cell) []error {
	out := make([]error, len(cells))
	sem := l.pool.sem
	var wg sync.WaitGroup
	n := 0 // cells started
start:
	for ; n < len(cells); n++ {
		if l.ctx.Err() != nil {
			break
		}
		i, c := n, cells[n]
		if sem == nil {
			out[i] = l.Attempt(c.app, c.stage, c.body)
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-l.ctx.Done():
			break start
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = l.Attempt(c.app, c.stage, c.body)
		}()
	}
	for i := n; i < len(cells); i++ {
		out[i] = errNotRun
	}
	if n < len(cells) {
		l.report.Skip(len(cells)-n, context.Cause(l.ctx))
	}
	wg.Wait()
	return out
}
