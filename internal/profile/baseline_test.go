package profile_test

import (
	"reflect"
	"testing"

	"ispy/internal/experiments"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// TestCollectStatsAreTheBaselineRun: the profiling hooks observe the
// simulation without steering it, so the profile run's statistics are a
// hook-free run's, field for field, for every preset at both harness
// budgets. The experiment lab serves each app's baseline from its profile
// run on the strength of this.
func TestCollectStatsAreTheBaselineRun(t *testing.T) {
	budgets := []experiments.Config{experiments.QuickConfig(), experiments.DefaultConfig()}
	for _, name := range workload.AppNames {
		w := workload.Preset(name)
		in := workload.DefaultInput(w)
		for _, b := range budgets {
			scfg := b.SimConfig(w.Params.BackendCPI)
			got := profile.Collect(w, in, scfg).Stats
			want := sim.Run(w.Prog, workload.NewExecutor(w, in), scfg, nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d instrs: profile run %+v, hook-free run %+v", name, scfg.MaxInstrs, got, want)
			}
		}
	}
}
