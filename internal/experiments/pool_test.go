package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ok wraps an errorless task body in the pool's task signature.
func ok(f func()) func(context.Context) error {
	return func(context.Context) error { f(); return nil }
}

func TestSequentialPoolRunsInlineInOrder(t *testing.T) {
	p := NewPool(1)
	if p.Size() != 1 {
		t.Fatalf("Size = %d", p.Size())
	}
	var order []int
	g := p.Group(context.Background())
	for i := 0; i < 10; i++ {
		i := i
		g.Go(ok(func() { order = append(order, i) }))
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential pool reordered tasks: %v", order)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const size = 3
	p := NewPool(size)
	var live, peak, ran int32
	var mu sync.Mutex
	g := p.Group(context.Background())
	for i := 0; i < 50; i++ {
		g.Go(ok(func() {
			n := atomic.AddInt32(&live, 1)
			mu.Lock()
			if n > peak {
				peak = n
			}
			mu.Unlock()
			atomic.AddInt32(&ran, 1)
			atomic.AddInt32(&live, -1)
		}))
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 50 {
		t.Errorf("ran %d of 50 tasks", ran)
	}
	// The waiter may run one queued task inline while `size` slots are
	// occupied, so the observable peak is size+1.
	if peak > size+1 {
		t.Errorf("peak concurrency %d exceeds pool size %d (+1 inline)", peak, size)
	}
}

// TestNestedGroupsDoNotDeadlock is the regression test for the scheduler's
// core property: a pool task that opens its own group and waits on it must
// always make progress, even when every slot is busy doing exactly that.
func TestNestedGroupsDoNotDeadlock(t *testing.T) {
	p := NewPool(2)
	var ran int32
	outer := p.Group(context.Background())
	for i := 0; i < 8; i++ {
		outer.Go(func(ctx context.Context) error {
			inner := p.Group(ctx)
			for j := 0; j < 8; j++ {
				inner.Go(ok(func() { atomic.AddInt32(&ran, 1) }))
			}
			return inner.Wait()
		})
	}
	if err := outer.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 64 {
		t.Errorf("ran %d of 64 nested tasks", ran)
	}
}

func TestGroupWaitDrainsQueuedTasks(t *testing.T) {
	p := NewPool(2)
	var ran int32
	g := p.Group(context.Background())
	// Submit far more tasks than slots so most of them land in the queue.
	for i := 0; i < 200; i++ {
		g.Go(ok(func() { atomic.AddInt32(&ran, 1) }))
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 200 {
		t.Errorf("ran %d of 200 tasks", ran)
	}
	// A drained group is reusable for a second round.
	for i := 0; i < 10; i++ {
		g.Go(ok(func() { atomic.AddInt32(&ran, 1) }))
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 210 {
		t.Errorf("second round ran %d of 210 total", ran)
	}
}

// TestGroupPanicBecomesError: a panicking task must not take down the run —
// its panic is converted to a *PanicError with a stack trace, and every
// other task still executes.
func TestGroupPanicBecomesError(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := NewPool(size)
		var ran int32
		g := p.Group(context.Background())
		for i := 0; i < 20; i++ {
			i := i
			g.Go(func(context.Context) error {
				if i == 7 {
					panic("boom 7")
				}
				atomic.AddInt32(&ran, 1)
				return nil
			})
		}
		err := g.Wait()
		if ran != 19 {
			t.Errorf("size %d: ran %d of 19 surviving tasks", size, ran)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("size %d: Wait = %v, want PanicError", size, err)
		}
		if fmt.Sprint(pe.Value) != "boom 7" || len(pe.Stack) == 0 {
			t.Errorf("size %d: PanicError = %v (stack %d bytes)", size, pe.Value, len(pe.Stack))
		}
		if !strings.Contains(err.Error(), "boom 7") {
			t.Errorf("error text %q does not name the panic", err)
		}
	}
}

// TestGroupErrorsJoined: every task error survives into Wait's result.
func TestGroupErrorsJoined(t *testing.T) {
	p := NewPool(2)
	g := p.Group(context.Background())
	e1, e2 := errors.New("first"), errors.New("second")
	g.Go(func(context.Context) error { return e1 })
	g.Go(ok(func() {}))
	g.Go(func(context.Context) error { return e2 })
	err := g.Wait()
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Errorf("Wait = %v, want both task errors", err)
	}
	// After a Wait the error state is consumed.
	g.Go(ok(func() {}))
	if err := g.Wait(); err != nil {
		t.Errorf("second Wait = %v, want nil", err)
	}
}

// TestCancelSkipsQueuedTasks: cancellation must abandon queued-but-unstarted
// tasks and report them (SkipError), while started tasks finish.
func TestCancelSkipsQueuedTasks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancelCause(context.Background())
	p := NewPool(2)
	g := p.Group(ctx)
	release := make(chan struct{})
	var started, ran int32
	for i := 0; i < 2; i++ {
		g.Go(func(c context.Context) error {
			atomic.AddInt32(&started, 1)
			<-release
			return c.Err()
		})
	}
	for i := 0; i < 10; i++ {
		g.Go(ok(func() { atomic.AddInt32(&ran, 1) }))
	}
	cause := errors.New("operator interrupt")
	cancel(cause)
	close(release)
	err := g.Wait()
	if started != 2 {
		t.Fatalf("started %d of 2 slot tasks", started)
	}
	if ran != 0 {
		t.Errorf("%d queued tasks ran after cancellation", ran)
	}
	var se *SkipError
	if !errors.As(err, &se) || se.Skipped != 10 {
		t.Fatalf("Wait = %v, want SkipError{Skipped:10}", err)
	}
	if !errors.Is(se, cause) {
		t.Errorf("SkipError cause = %v, want the cancellation cause", se.Cause)
	}
	// Submissions after cancellation are skipped too (and freshly reported).
	g.Go(ok(func() { atomic.AddInt32(&ran, 1) }))
	if err := g.Wait(); !errors.As(err, &se) || se.Skipped != 1 {
		t.Errorf("post-cancel Wait = %v, want SkipError{Skipped:1}", err)
	}
	if ran != 0 {
		t.Error("task ran on a cancelled group")
	}
	// No goroutine leaks: everything the pool spawned has exited.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestSequentialCancelSkips: the one-slot (inline) pool honors cancellation the
// same way.
func TestSequentialCancelSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewPool(1).Group(ctx)
	var ran int32
	g.Go(ok(func() { atomic.AddInt32(&ran, 1) }))
	cancel()
	g.Go(ok(func() { atomic.AddInt32(&ran, 1) }))
	err := g.Wait()
	if ran != 1 {
		t.Errorf("ran %d tasks, want 1 (pre-cancel only)", ran)
	}
	var se *SkipError
	if !errors.As(err, &se) || se.Skipped != 1 {
		t.Errorf("Wait = %v, want SkipError{Skipped:1}", err)
	}
}

// TestLabConcurrentGetters hammers every memoized getter and the variant
// helpers from many goroutines; run under -race this is the regression test
// for the per-artifact memoization replacing the old single App mutex.
func TestLabConcurrentGetters(t *testing.T) {
	l := NewLab(Config{
		Apps:          []string{"tomcat"},
		MeasureInstrs: 120_000,
		WarmupInstrs:  30_000,
		SweepInstrs:   60_000,
		SweepWarmup:   15_000,
		Parallel:      true,
		Jobs:          4,
	})
	a := l.App("tomcat")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a.Base() != a.Base() || a.Ideal() != a.Ideal() {
				t.Error("base/ideal not memoized under concurrency")
			}
			if a.Profile() != a.Profile() || a.ISPY() != a.ISPY() {
				t.Error("profile/build not memoized under concurrency")
			}
			a.AsmDBStats()
			a.ISPYStats()
			a.ISPYVariantStats(smokeVariantOpt(), a.SweepCfg())
		}()
	}
	// Pool-submitted work races against the direct getters above.
	l.Warm()
	wg.Wait()
	if l.Telemetry().Bypasses() == 0 {
		t.Error("cache-less lab recorded no bypasses")
	}
}
