package traffic

import (
	"testing"

	"ispy/internal/sim"
)

// TestCollectorAttributesRun drives a real baseline simulation of a
// two-tenant world and checks that hook-attributed rows are internally
// consistent with the run's Stats.
func TestCollectorAttributesRun(t *testing.T) {
	spec := mustSpec(t, "seed=12;requests=64;arrival=gamma:0.6;tenants=wordpress:slo=interactive,kafka:slo=batch")
	w, err := BuildWorld(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(w, Compose(spec))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default().WithWorkloadCPI(w.BackendCPI())
	cfg.MaxInstrs = 200_000
	cfg.WarmupInstrs = 50_000
	c := NewCollector(w)
	st := sim.Run(w.Prog, ex, cfg, c.Hooks())
	rows := c.Rows()

	var blocks, instrs, misses, reqs uint64
	for i := range rows {
		r := &rows[i]
		if r.Blocks == 0 || r.Instrs == 0 {
			t.Fatalf("tenant %q saw no measured activity: %+v", r.Name, r)
		}
		blocks += r.Blocks
		instrs += r.Instrs
		misses += r.Misses
		reqs += r.Requests
	}
	if blocks != st.Blocks {
		t.Fatalf("row blocks %d != stats blocks %d", blocks, st.Blocks)
	}
	if instrs != st.BaseInstrs {
		t.Fatalf("row instrs %d != stats base instrs %d", instrs, st.BaseInstrs)
	}
	if misses != st.L1IMisses {
		t.Fatalf("row misses %d != stats L1I misses %d", misses, st.L1IMisses)
	}
	if reqs == 0 {
		t.Fatal("no requests attributed")
	}

	slo := SLORows(rows)
	if len(slo) != 2 || slo[0].Name != "interactive" || slo[1].Name != "batch" {
		t.Fatalf("SLO rows wrong: %+v", slo)
	}
	if slo[0].Misses+slo[1].Misses != misses {
		t.Fatal("SLO aggregation lost misses")
	}
	if m := MPKI(&rows[0]); m <= 0 {
		t.Fatalf("MPKI not positive: %v", m)
	}
}
