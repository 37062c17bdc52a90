// Package goleak exercises the goroutine-leak pass: every spawn needs a
// provable join path or a reasoned //ispy:detach waiver.
package goleak

import (
	"context"
	"sync"

	"fixture/internal/experiments"
)

// FireAndForget has no join path at all.
func FireAndForget(work func()) {
	go func() { // want `no join path`
		work()
	}()
}

// SelectAbandon receives the result only inside a select: the ctx arm
// abandons the goroutine, so the receive is not a join.
func SelectAbandon(ctx context.Context, work func() error) error {
	done := make(chan error, 1)
	go func() { // want `no join path`
		done <- work()
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Opaque launches a function value the analysis cannot resolve.
func Opaque(work func()) {
	go work() // want `cannot resolve`
}

// UnwaitedPool never joins its submissions.
func UnwaitedPool(p *experiments.Pool, work func() error) {
	p.Go(func(context.Context) error { // want `never joined`
		return work()
	})
}

// WaitGroupJoin is clean: Done in the task, Wait in the spawner.
func WaitGroupJoin(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// BoundLiteralJoin is clean: the launched variable resolves to the literal
// it is bound to, whose Done pairs with the spawner's Wait.
func BoundLiteralJoin(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	task := func() {
		defer wg.Done()
		work()
	}
	go task()
	wg.Wait()
}

// ChannelJoin is clean: the receive is unconditional.
func ChannelJoin(work func() error) error {
	done := make(chan error, 1)
	go func() { done <- work() }()
	return <-done
}

// CtxBounded is clean: the goroutine exits when the context does.
func CtxBounded(ctx context.Context, tick chan int) {
	go func() {
		for {
			select {
			case <-tick:
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Logger is deliberately detached for the process lifetime; the waiver
// records that decision.
func Logger(lines chan string, sink func(string)) {
	//ispy:detach process-lifetime logger; exits when the channel closes
	go func() {
		for ln := range lines {
			sink(ln)
		}
	}()
}
