package sim

import (
	"runtime"
	"testing"

	"ispy/internal/cache"
	"ispy/internal/lbr"
	"ispy/internal/workload"
)

// TestHierarchyFreeList pins Run's free list: a finished run's hierarchy is
// the next run's, a run that panics gives its hierarchy up, and at most
// GOMAXPROCS idle hierarchies are kept per configuration.
func TestHierarchyFreeList(t *testing.T) {
	// A configuration no other test uses, so its free list is this test's;
	// it starts empty even when the test repeats (-count).
	hc := cache.TableI()
	hc.MemLatency++
	idle.Lock()
	delete(idle.byCfg, hc)
	idle.Unlock()
	idleOf := func() []*cache.Hierarchy {
		idle.Lock()
		defer idle.Unlock()
		return append([]*cache.Hierarchy(nil), idle.byCfg[hc]...)
	}
	w := workload.Preset("wordpress")
	cfg := Default()
	cfg.Hier = hc
	cfg.MaxInstrs, cfg.WarmupInstrs = 20_000, 0
	run := func(hooks *Hooks) {
		Run(w.Prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, hooks)
	}

	run(nil)
	first := idleOf()
	if len(first) != 1 {
		t.Fatalf("%d idle hierarchies after one run, want 1", len(first))
	}
	run(nil)
	if got := idleOf(); len(got) != 1 || got[0] != first[0] {
		t.Fatal("the second run did not reuse the first run's hierarchy")
	}

	func() {
		defer func() { _ = recover() }()
		run(&Hooks{OnBlock: func(int, uint64, *lbr.LBR) { panic("hook") }})
	}()
	if got := idleOf(); len(got) != 0 {
		t.Fatal("a panicking run returned its hierarchy to the free list")
	}

	n := runtime.GOMAXPROCS(0)
	for i := 0; i <= n; i++ {
		releaseHierarchy(cache.NewHierarchy(hc))
	}
	if got := idleOf(); len(got) != n {
		t.Fatalf("%d idle hierarchies kept, want the cap GOMAXPROCS = %d", len(got), n)
	}
}
