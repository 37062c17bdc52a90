package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ispy/internal/core"
	"ispy/internal/workload"
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
	// The waiter holds no slot, so it waits for one instead of running a
	// queued task inline beside the pool.
	if peak > size {
		t.Errorf("peak concurrency %d exceeds pool size %d", peak, size)
	}
}

// TestTopLevelWaitersShareTheBound: many groups whose waiters hold no slot,
// as the goroutines of experiments running at once, never run more tasks
// at a time than the pool has slots, however many of them wait.
func TestTopLevelWaitersShareTheBound(t *testing.T) {
	const size, groups, tasks = 2, 8, 10
	p := NewPool(size)
	var live, peak, ran atomic.Int32
	task := ok(func() {
		n := live.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond) // long enough for the waiters to overlap
		ran.Add(1)
		live.Add(-1)
	})
	var wg sync.WaitGroup
	for i := 0; i < groups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := p.Group(context.Background())
			for j := 0; j < tasks; j++ {
				g.Go(task)
			}
			if err := g.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != groups*tasks {
		t.Errorf("ran %d of %d tasks", ran.Load(), groups*tasks)
	}
	if peak.Load() > size {
		t.Errorf("peak concurrency %d exceeds pool size %d", peak.Load(), size)
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

// cancelOnCheck is a context that cancels itself with errInterrupt on the
// nth Err check after arm(n), so a test can cancel between the pool's check
// of a task and Attempt's check of its cell.
type cancelOnCheck struct {
	context.Context
	cancel context.CancelCauseFunc
	left   atomic.Int32 // checks until the cancel; 0 when not armed
}

var errInterrupt = errors.New("operator interrupt")

func newCancelOnCheck() *cancelOnCheck {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &cancelOnCheck{Context: ctx, cancel: cancel}
}

func (c *cancelOnCheck) arm(n int32) { c.left.Store(n) }

func (c *cancelOnCheck) Err() error {
	if c.left.Load() > 0 && c.left.Add(-1) == 0 {
		c.cancel(errInterrupt)
	}
	return c.Context.Err()
}

// TestRunCells: on a 1-slot pool every cell's outcome lands in its own slot
// and the cells run in submission order; a panicking cell yields a
// *PanicError for that cell only; a cell whose Attempt saw the cancelled
// context keeps its *SkipError; and the cells after the cancellation come
// back errNotRun, counted as skipped.
func TestRunCells(t *testing.T) {
	ctx := newCancelOnCheck()
	l := NewLabContext(ctx, Config{Apps: []string{"tomcat"}})
	var order []int
	body := func(i int, err error) func() error {
		return func() error { order = append(order, i); return err }
	}
	errCell := errors.New("cell 1 failed")
	cells := []cell{
		{"tomcat", "t/0", body(0, nil)},
		{"tomcat", "t/1", body(1, errCell)},
		{"wordpress", "t/2", func() error { order = append(order, 2); panic("boom") }},
		// Cell 4's two checks are the pool's, then Attempt's: the second cancels.
		{"tomcat", "t/3", func() error { order = append(order, 3); ctx.arm(2); return nil }},
		{"tomcat", "t/4", body(4, nil)},
		{"tomcat", "t/5", body(5, nil)},
		{"tomcat", "t/6", body(6, nil)},
	}
	errs := l.runCells(cells)

	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("cells ran in order %v, want %v", order, want)
	}
	if len(errs) != len(cells) {
		t.Fatalf("%d outcomes for %d cells", len(errs), len(cells))
	}
	if errs[0] != nil || errs[3] != nil {
		t.Errorf("clean cells: outcomes %v and %v, want nil", errs[0], errs[3])
	}
	if !errors.Is(errs[1], errCell) {
		t.Errorf("cell 1: outcome %v, want its own error", errs[1])
	}
	var pe *PanicError
	if !errors.As(errs[2], &pe) || pe.Value != "boom" {
		t.Errorf("cell 2: outcome %v, want a *PanicError of its panic", errs[2])
	}
	for i, err := range errs {
		if i != 2 && errors.As(err, &pe) {
			t.Errorf("cell %d: outcome %v is another cell's panic", i, err)
		}
	}
	var se *SkipError
	if !errors.As(errs[4], &se) || !errors.Is(se, errInterrupt) {
		t.Errorf("cell 4: outcome %v, want Attempt's *SkipError carrying the cause", errs[4])
	}
	for _, i := range []int{5, 6} {
		if !errors.Is(errs[i], errNotRun) {
			t.Errorf("cell %d: outcome %v, want errNotRun", i, errs[i])
		}
	}

	rep := l.Report()
	if rep.Skipped() != 3 {
		t.Errorf("report counts %d skipped cells, want 3 (cell 4's Attempt and cells 5-6)", rep.Skipped())
	}
	fails := rep.Failures()
	if len(fails) != 2 || fails[0].Stage != "t/1" || fails[1].App != "wordpress" || fails[1].Stage != "t/2" {
		t.Errorf("report failures %+v, want cell 1 and cell 2 under their own app and stage", fails)
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
	workloads := make([]*workload.Workload, 16)
	plans := make([]*core.Plan, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workloads[i], plans[i] = a.Workload(), a.ISPYPlan()
			if a.Base() != a.Base() || a.Ideal() != a.Ideal() {
				t.Error("base/ideal not memoized under concurrency")
			}
			if a.Profile() != a.Profile() || a.ISPY() != a.ISPY() {
				t.Error("profile/build not memoized under concurrency")
			}
			a.AsmDBStats()
			a.AsmDBPlan()
			a.ISPYStats()
			a.ISPYVariantStats(smokeVariantOpt(), a.SweepCfg())
		}()
	}
	// Pool-submitted work races against the direct getters above.
	l.Warm()
	wg.Wait()
	for i := range workloads {
		if workloads[i] != workloads[0] || plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different workload or plan than goroutine 0", i)
		}
	}
	if plans[0] != a.ISPY().Plan || a.AsmDBPlan() != a.AsmDB().Plan {
		t.Error("cache-less ISPYPlan or AsmDBPlan is not the build's plan")
	}
	if l.Telemetry().Bypasses() == 0 {
		t.Error("cache-less lab recorded no bypasses")
	}
}
