package experiments

import (
	"context"
	"errors"
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

// poolLab is a lab whose cells run on a pool of size slots, governed by ctx.
func poolLab(ctx context.Context, size int) *Lab {
	return NewLabShared(ctx, Config{Apps: []string{"tomcat"}}, Shared{Pool: NewPool(size)})
}

// cells returns n cells that each call f.
func cells(n int, f func()) []cell {
	out := make([]cell, n)
	for i := range out {
		out[i] = cell{"tomcat", "pool", func() error { f(); return nil }}
	}
	return out
}

func TestSequentialPoolRunsInlineInOrder(t *testing.T) {
	p := NewPool(1)
	if p.Size() != 1 {
		t.Fatalf("Size = %d", p.Size())
	}
	l := NewLabShared(context.Background(), Config{Apps: []string{"tomcat"}}, Shared{Pool: p})
	var order []int
	var cs []cell
	for i := 0; i < 10; i++ {
		cs = append(cs, cell{"tomcat", "pool", func() error { order = append(order, i); return nil }})
	}
	for i, err := range l.runCells(cs) {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential pool reordered cells: %v", order)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const size = 3
	l := poolLab(context.Background(), size)
	var live, peak, ran int32
	var mu sync.Mutex
	errs := l.runCells(cells(50, func() {
		n := atomic.AddInt32(&live, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		time.Sleep(100 * time.Microsecond) // long enough for cells to overlap
		atomic.AddInt32(&ran, 1)
		atomic.AddInt32(&live, -1)
	}))
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if ran != 50 {
		t.Errorf("ran %d of 50 cells", ran)
	}
	// The caller holds no slot, so it waits for one instead of running a
	// cell inline beside the pool.
	if peak > size {
		t.Errorf("peak concurrency %d exceeds pool size %d", peak, size)
	}
}

// TestTopLevelWaitersShareTheBound: many concurrent runCells calls on one
// lab, as the goroutines of experiments running at once, never run more
// cells at a time than the pool has slots, however many of them wait.
func TestTopLevelWaitersShareTheBound(t *testing.T) {
	const size, callers, n = 2, 8, 10
	l := poolLab(context.Background(), size)
	var live, peak, ran atomic.Int32
	body := func() {
		n := live.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond) // long enough for the callers to overlap
		ran.Add(1)
		live.Add(-1)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := errors.Join(l.runCells(cells(n, body))...); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != callers*n {
		t.Errorf("ran %d of %d cells", ran.Load(), callers*n)
	}
	if peak.Load() > size {
		t.Errorf("peak concurrency %d exceeds pool size %d", peak.Load(), size)
	}
}

// TestCancelSkipsQueuedTasks: cancellation stops the cells that have not
// started — each comes back errNotRun and is counted skipped in the run
// report — while started cells finish, and no goroutine outlives the call.
func TestCancelSkipsQueuedTasks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancelCause(context.Background())
	l := poolLab(ctx, 2)
	started := make(chan struct{})
	release := make(chan struct{})
	var finished, ran atomic.Int32
	holder := cell{"tomcat", "pool", func() error {
		started <- struct{}{}
		<-release
		finished.Add(1)
		return nil
	}}
	cs := append([]cell{holder, holder}, cells(10, func() { ran.Add(1) })...)
	done := make(chan []error)
	go func() { done <- l.runCells(cs) }()
	// Both slots are held until release, so no later cell can start.
	<-started
	<-started
	cause := errors.New("operator interrupt")
	cancel(cause)
	// runCells counts the cells it will not start before it joins the two
	// it started.
	for deadline := time.Now().Add(10 * time.Second); l.Report().Skipped() < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	errs := <-done
	if finished.Load() != 2 {
		t.Errorf("%d of 2 started cells finished", finished.Load())
	}
	if ran.Load() != 0 {
		t.Errorf("%d queued cells ran after cancellation", ran.Load())
	}
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("started cells: outcomes %v and %v, want nil", errs[0], errs[1])
	}
	for i, err := range errs[2:] {
		if !errors.Is(err, errNotRun) {
			t.Errorf("cell %d: outcome %v, want errNotRun", i+2, err)
		}
	}
	rep := l.Report()
	if rep.Skipped() != 10 || len(rep.Failures()) != 0 {
		t.Errorf("report: %d skipped, failures %v; want 10 skipped and no failure", rep.Skipped(), rep.Failures())
	}
	if !strings.Contains(rep.Summary(), cause.Error()) {
		t.Errorf("report does not name the cancellation cause:\n%s", rep.Summary())
	}
	// A call after cancellation starts nothing and counts every cell.
	errs = l.runCells(cells(1, func() { ran.Add(1) }))
	if !errors.Is(errs[0], errNotRun) || rep.Skipped() != 11 || ran.Load() != 0 {
		t.Errorf("post-cancel call: outcome %v, %d skipped, %d ran; want errNotRun, 11, 0", errs[0], rep.Skipped(), ran.Load())
	}
	// No goroutine leaks: every cell goroutine has exited.
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

// TestSequentialCancelSkips: the one-slot (inline) pool honors cancellation
// the same way.
func TestSequentialCancelSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := poolLab(ctx, 1)
	var ran int32
	errs := l.runCells([]cell{
		{"tomcat", "pool", func() error { atomic.AddInt32(&ran, 1); cancel(); return nil }},
		{"tomcat", "pool", func() error { atomic.AddInt32(&ran, 1); return nil }},
	})
	if ran != 1 {
		t.Errorf("ran %d cells, want 1 (pre-cancel only)", ran)
	}
	if errs[0] != nil || !errors.Is(errs[1], errNotRun) {
		t.Errorf("outcomes %v, want [nil errNotRun]", errs)
	}
	if n := l.Report().Skipped(); n != 1 {
		t.Errorf("report counts %d skipped cells, want 1", n)
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
		// Cell 4's two checks are runCells', then Attempt's: the second cancels.
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
	plans := make([]core.PlanSummary, 16)
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
		if workloads[i] != workloads[0] || !reflect.DeepEqual(plans[i], plans[0]) {
			t.Fatalf("goroutine %d got a different workload or plan than goroutine 0", i)
		}
	}
	if !reflect.DeepEqual(plans[0], a.ISPY().Plan.Summary()) || !reflect.DeepEqual(a.AsmDBPlan(), a.AsmDB().Plan.Summary()) {
		t.Error("cache-less ISPYPlan or AsmDBPlan is not the summary of the build's plan")
	}
	if l.Telemetry().Bypasses() == 0 {
		t.Error("cache-less lab recorded no bypasses")
	}
}
