package core_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

func encodeProgram(t *testing.T, p *isa.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplySharesUnchangedBlocks: builds of one base under different
// options, run at once, leave base unchanged, down to its traceio bytes.
// Each build shares base's Funcs and the instruction list of every block
// that hosts no prefetch, gives every site block a list of its own, and
// shares no list that holds a prefetch.
func TestApplySharesUnchangedBlocks(t *testing.T) {
	w := workload.Preset("tomcat")
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs, scfg.WarmupInstrs = 500_000, 250_000
	p := profile.Collect(w, workload.DefaultInput(w), scfg)
	prep := core.Prepare(p, scfg, core.DefaultOptions())
	base := w.Prog
	wantBytes, wantProg := encodeProgram(t, base), base.Clone()

	variants := []func(*core.Options){
		func(*core.Options) {},
		func(o *core.Options) { o.Coalesce = false },
		func(o *core.Options) { o.Conditional = false },
		func(o *core.Options) { o.HashBits = 4 },
		func(o *core.Options) { o.CoalesceBits = 64 },
	}
	builds := make([]*core.Build, len(variants))
	var wg sync.WaitGroup
	for i, set := range variants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := core.DefaultOptions()
			set(&opt)
			builds[i] = core.BuildFromPrepared(p, prep, opt)
		}()
	}
	wg.Wait()

	if !bytes.Equal(encodeProgram(t, base), wantBytes) || !reflect.DeepEqual(base, wantProg) {
		t.Fatal("Apply changed its base program")
	}
	for v, b := range builds {
		if len(b.Plan.Prefetches) == 0 {
			t.Fatalf("variant %d injected nothing", v)
		}
		if &b.Prog.Funcs[0] != &base.Funcs[0] {
			t.Errorf("variant %d copied Funcs", v)
		}
		sites := make(map[int32]bool)
		for _, pf := range b.Plan.Prefetches {
			sites[pf.Site] = true
		}
		for i := range b.Prog.Blocks {
			got, orig := b.Prog.Blocks[i].Instrs, base.Blocks[i].Instrs
			shared := &got[0] == &orig[0]
			if sites[int32(i)] == shared {
				t.Fatalf("variant %d block %d: site %v, shares base's list %v", v, i, sites[int32(i)], shared)
			}
			if !shared {
				continue
			}
			for _, in := range got {
				if in.Kind.IsPrefetch() {
					t.Fatalf("variant %d block %d: a shared list holds a %v", v, i, in.Kind)
				}
			}
		}
	}
}
