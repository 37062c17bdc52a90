// The run-wide worker pool: one bounded set of execution slots shared by
// every level of the harness — per-app artifact computation and per-sweep-
// point variant runs alike — so a 9-app × 6-point sweep saturates all cores
// instead of idling on the longest app.
//
// The design is deliberately deadlock-free under nesting: tasks never block
// waiting for a slot. Group.Go either claims a free slot (async) or queues
// the task locally; Group.Wait drains the queue, handing tasks to slots as
// they free up and running them inline otherwise. A task that itself opens a
// sub-Group and Waits on it therefore always makes progress — worst case it
// runs its subtasks inline in its own slot.
//
// Failure model: tasks are func(ctx) error. A task panic is recovered and
// converted to a *PanicError carrying the stack; Wait returns the join of
// every task error. Cancelling the group's context stops queued-but-
// unstarted tasks — they are counted and reported through Wait as a
// *SkipError, never silently dropped — while already-running tasks finish
// (or observe ctx themselves).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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

// PanicError is a task panic converted to an error. Value is the original
// panic value; Stack is the panicking goroutine's stack at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// SkipError reports tasks that were queued but never started because the
// group's context was cancelled.
type SkipError struct {
	Skipped int
	Cause   error
}

func (e *SkipError) Error() string {
	return fmt.Sprintf("%d queued task(s) skipped: %v", e.Skipped, e.Cause)
}

func (e *SkipError) Unwrap() error { return e.Cause }

// Group collects related tasks submitted to one pool so the submitter can
// wait for exactly its own work. Groups are cheap; create one per fan-out.
type Group struct {
	p   *Pool
	ctx context.Context
	wg  sync.WaitGroup

	mu      sync.Mutex
	pending []func(context.Context) error
	errs    []error
	skipped int
}

// Group starts an empty task group on the pool. ctx cancellation skips
// queued-but-unstarted tasks (nil means never cancelled).
func (p *Pool) Group(ctx context.Context) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Group{p: p, ctx: ctx}
}

// Go submits one task. If a pool slot is free the task runs concurrently;
// otherwise it is queued and executed during Wait (possibly inline in the
// waiter). On a sequential pool the task runs inline immediately, preserving
// submission order. If the group's context is already cancelled the task is
// skipped and counted.
func (g *Group) Go(f func(context.Context) error) {
	if g.ctx.Err() != nil {
		g.mu.Lock()
		g.skipped++
		g.mu.Unlock()
		return
	}
	if g.p == nil || g.p.sem == nil {
		g.run(f)
		return
	}
	select {
	case g.p.sem <- struct{}{}:
		g.spawn(f)
	default:
		g.mu.Lock()
		g.pending = append(g.pending, f)
		g.mu.Unlock()
	}
}

// run executes f, converting a panic into a recorded *PanicError and an
// error return into a recorded error.
func (g *Group) run(f func(context.Context) error) {
	defer func() {
		if r := recover(); r != nil {
			g.addErr(&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if err := f(g.ctx); err != nil {
		g.addErr(err)
	}
}

func (g *Group) addErr(err error) {
	g.mu.Lock()
	g.errs = append(g.errs, err)
	g.mu.Unlock()
}

// spawn runs f on its own goroutine; the caller must already hold a slot.
func (g *Group) spawn(f func(context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { <-g.p.sem }()
		g.run(f)
	}()
}

// Wait drains the group's queued tasks — handing each to a freed slot when
// one is available, running it inline otherwise — then blocks until every
// spawned task has finished. It returns the join of all task errors; if
// cancellation skipped queued tasks, a *SkipError naming the count and the
// cancellation cause is included. The group is reusable after Wait (errors
// and skip counts are consumed).
func (g *Group) Wait() error {
	if g.p != nil && g.p.sem != nil {
		for {
			g.mu.Lock()
			if g.ctx.Err() != nil {
				// Abandon the queue: every not-yet-started task is skipped.
				g.skipped += len(g.pending)
				g.pending = nil
			}
			if len(g.pending) == 0 {
				g.mu.Unlock()
				break
			}
			f := g.pending[0]
			g.pending = g.pending[1:]
			g.mu.Unlock()
			select {
			case g.p.sem <- struct{}{}:
				g.spawn(f)
			default:
				g.run(f)
			}
		}
		g.wg.Wait()
	}
	g.mu.Lock()
	errs := g.errs
	skipped := g.skipped
	g.errs, g.skipped = nil, 0
	g.mu.Unlock()
	if skipped > 0 {
		errs = append(errs, &SkipError{Skipped: skipped, Cause: context.Cause(g.ctx)})
	}
	return errors.Join(errs...)
}
