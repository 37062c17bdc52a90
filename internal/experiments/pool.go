// The run-wide worker pool: one bounded set of execution slots shared by
// every level of the harness — per-app artifact computation and per-sweep-
// point variant runs alike, across every experiment of a run — so a 9-app ×
// 6-point sweep saturates all cores instead of idling on the longest app,
// and one experiment's cells fill the slots another leaves free.
//
// The slots bound every running task. Group.Go claims a free slot (async)
// or queues the task locally; Group.Wait hands each queued task to a slot.
// A waiter that holds no slot — an experiment's own goroutine, a request
// handler — waits for one to free up. A waiter inside a pool task already
// holds one, so when none is free it runs the queued task inline in its own
// slot: a task that opens a sub-Group on the context it was given and Waits
// on it therefore always makes progress, and nested fan-outs cannot
// deadlock.
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
	// inSlot is the context tasks run under: ctx, marked as holding one of
	// p's slots. A group opened on it drains inline when no slot is free.
	inSlot context.Context
	wg     sync.WaitGroup

	mu      sync.Mutex
	pending []func(context.Context) error
	errs    []error
	skipped int
}

// slotKey marks a task's context with the pool whose slot the task holds.
type slotKey struct{}

// Group starts an empty task group on the pool. ctx cancellation skips
// queued-but-unstarted tasks (nil means never cancelled). A task that fans
// out again opens its group on the context it was given, which tells Wait
// that the waiter holds a slot.
func (p *Pool) Group(ctx context.Context) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Group{p: p, ctx: ctx, inSlot: ctx}
	if p != nil && p.sem != nil && ctx.Value(slotKey{}) != p {
		g.inSlot = context.WithValue(ctx, slotKey{}, p)
	}
	return g
}

// holdsSlot reports whether the group was opened inside one of its pool's
// tasks, on that task's context.
func (g *Group) holdsSlot() bool { return g.ctx == g.inSlot }

// Go submits one task. If a pool slot is free the task runs concurrently;
// otherwise it is queued and executed during Wait (inline in the waiter only
// when the waiter is itself a pool task). On a sequential pool the task runs
// inline immediately, preserving submission order. If the group's context is
// already cancelled the task is skipped and counted.
func (g *Group) Go(f func(context.Context) error) {
	if g.ctx.Err() != nil {
		g.mu.Lock()
		g.skipped++
		g.mu.Unlock()
		return
	}
	if g.p == nil || g.p.sem == nil {
		g.run(g.ctx, f)
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

// run executes f under ctx, converting a panic into a recorded *PanicError
// and an error return into a recorded error.
func (g *Group) run(ctx context.Context, f func(context.Context) error) {
	defer func() {
		if r := recover(); r != nil {
			g.addErr(&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if err := f(ctx); err != nil {
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
		g.run(g.inSlot, f)
	}()
}

// Wait drains the group's queued tasks, handing each to a slot as one
// frees up, then blocks until every spawned task has finished. A waiter
// inside a pool task runs a queued task inline in its own slot when none is
// free; any other waiter waits for a slot. It returns the join of all task
// errors; if cancellation skipped queued tasks, a *SkipError naming the
// count and the cancellation cause is included. The group is reusable after
// Wait (errors and skip counts are consumed).
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
			if g.holdsSlot() {
				select {
				case g.p.sem <- struct{}{}:
					g.spawn(f)
				default:
					g.run(g.ctx, f)
				}
				continue
			}
			select {
			case g.p.sem <- struct{}{}:
				g.spawn(f)
			case <-g.ctx.Done():
				g.mu.Lock()
				g.skipped++
				g.mu.Unlock()
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
