// Package conc exercises the concurrency-hygiene pass.
package conc

import (
	"context"
	"sync"

	"fixture/internal/experiments"
)

// Tasks shows the three ctx-parameter shapes.
func Tasks(p *experiments.Pool, work func() error) {
	p.Go(func(ctx context.Context) error { // want `never uses it`
		return work()
	})
	p.Go(func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return work()
	})
	p.Go(func(context.Context) error {
		return work()
	})
	p.Wait()
}

func namedIdle(ctx context.Context) error { return nil }

func namedHonest(ctx context.Context) error { return ctx.Err() }

// Named submits non-literal tasks: the ctx-usage rule resolves identifiers,
// cross-package selectors, and function-valued variables to their bodies.
func Named(p *experiments.Pool, work func() error) {
	p.Go(namedIdle)            // want `pool task namedIdle names its context parameter`
	p.Go(namedHonest)          // clean: the body consults ctx.Err
	p.Go(experiments.IdleTask) // want `pool task IdleTask names its context parameter`
	v := func(ctx context.Context) error { return work() }
	p.Go(v) // want `pool task v names its context parameter`
	p.Wait()
}

// WaitUnderLock blocks on a WaitGroup with the mutex held.
func WaitUnderLock(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait() // want `while holding mu`
	mu.Unlock()
}

// SendUnderLock sends on a channel with the mutex held.
func SendUnderLock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want `channel send while holding mu`
	mu.Unlock()
}

// CleanWait releases before blocking.
func CleanWait(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	mu.Unlock()
	wg.Wait()
}

// CondWait is the opposite discipline and must stay silent.
func CondWait(c *sync.Cond) {
	c.L.Lock()
	c.Wait()
	c.L.Unlock()
}
