// Multi-tenant scenario experiments: run a composed traffic scenario
// (internal/traffic) through the baseline and I-SPY pipelines and report
// per-tenant and per-SLO-class results.
//
// The deployment model matches the paper's (Fig. 9): each application is
// profiled and analyzed in isolation — the lab's cached single-tenant
// I-SPY builds are reused — and the injected programs are then merged into
// the multi-tenant address space and evaluated under the interleaved
// production schedule. Per-tenant rows are attributed from simulator hook
// events and persisted next to the run statistics in the artifact cache, so
// cold and warm replays of the same (seed, spec) render byte-identical
// reports.
package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"ispy/internal/artifacts"
	"ispy/internal/core"
	"ispy/internal/hashx"
	"ispy/internal/isa"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// ScenarioResult bundles one scenario's baseline and I-SPY evaluations.
type ScenarioResult struct {
	Spec     *traffic.Spec
	Trace    *traceio.ScenarioTrace
	Base     *sim.Stats
	ISPY     *sim.Stats
	BaseRows []traffic.TenantRow
	ISPYRows []traffic.TenantRow
}

// Scenario composes spec into a trace and evaluates it.
func (l *Lab) Scenario(spec *traffic.Spec) (*ScenarioResult, error) {
	return l.runScenario(spec, traffic.Compose(spec))
}

// ScenarioTrace replays an already-composed (recorded) trace.
func (l *Lab) ScenarioTrace(tr *traceio.ScenarioTrace) (*ScenarioResult, error) {
	spec, err := traffic.SpecFromTrace(tr)
	if err != nil {
		return nil, err
	}
	return l.runScenario(spec, tr)
}

func (l *Lab) runScenario(spec *traffic.Spec, tr *traceio.ScenarioTrace) (*ScenarioResult, error) {
	if len(tr.Recs) == 0 {
		return nil, fmt.Errorf("experiments: scenario trace has no records")
	}
	world, err := traffic.BuildWorld(spec)
	if err != nil {
		return nil, err
	}

	// The cache identity covers the trace bytes themselves, not just the
	// spec: a replayed trace may be hand-edited, and the realized schedule
	// is what the simulator consumes.
	var tbuf bytes.Buffer
	if err := traceio.WriteScenario(&tbuf, tr); err != nil {
		return nil, err
	}
	traceHash := hashx.FNV1a64(tbuf.Bytes())

	cfg := sim.Default().WithWorkloadCPI(world.BackendCPI())
	cfg.MaxInstrs = l.Cfg.MeasureInstrs
	cfg.WarmupInstrs = l.Cfg.WarmupInstrs

	run := func(prog *isa.Program) artifacts.ScenarioRun {
		ex, xerr := traffic.NewExecutor(world, tr)
		if xerr != nil {
			panic(xerr) // unreachable: the trace was validated above
		}
		col := traffic.NewCollector(world)
		st := sim.Run(prog, ex, cfg, col.Hooks())
		return artifacts.ScenarioRun{St: st, Rows: col.Rows()}
	}

	res := &ScenarioResult{Spec: spec, Trace: tr}

	baseKey := artifacts.NewKey("scenario-base", spec.Name).
		Str(spec.Material()).Uint(traceHash).SimConfig(cfg)
	base := l.scenario(baseKey, func() artifacts.ScenarioRun { return run(world.Prog) })
	res.Base, res.BaseRows = base.St, base.Rows

	// The I-SPY variant: per-app injected programs (cached single-tenant
	// builds) merged at the same offsets as the baseline. The run key folds
	// each distinct app's build identity so an options or budget change
	// invalidates the scenario run too.
	ispyKey := artifacts.NewKey("scenario-ispy", spec.Name).
		Str(spec.Material()).Uint(traceHash).SimConfig(cfg)
	apps := spec.Apps()
	for _, name := range apps {
		a := l.App(name)
		ispyKey = ispyKey.Str(name).Params(a.W.Params).Input(workload.DefaultInput(a.W)).
			SimConfig(a.SimCfg()).Options(core.DefaultOptions())
	}
	ispy := l.scenario(ispyKey, func() artifacts.ScenarioRun {
		progByApp := make(map[string]*isa.Program, len(apps))
		for _, name := range apps {
			progByApp[name] = l.App(name).ISPY().Prog
		}
		progs := make([]*isa.Program, len(world.Tenants))
		for i, t := range world.Tenants {
			progs[i] = progByApp[t.Spec.App]
		}
		variant, merr := world.Merged(progs)
		if merr != nil {
			panic(merr) // unreachable: injection preserves block structure
		}
		return run(variant)
	})
	res.ISPY, res.ISPYRows = ispy.St, ispy.Rows
	return res, nil
}

// scenario loads the scenario run for k or computes (and stores) it.
func (l *Lab) scenario(k *artifacts.Key, compute func() artifacts.ScenarioRun) artifacts.ScenarioRun {
	return cached(l, k, l.cache.LoadScenario, l.cache.StoreScenario, compute)
}

// Render formats the scenario report: per-tenant rows, per-SLO-class
// aggregates, and the headline speedup. Output is a pure function of the
// result — the golden determinism tests compare it byte for byte, and the
// ispy-vet purity pass proves it statically: this method is a configured
// renderer sink, so a wall-clock read or operational counter flowing into
// the returned string fails the gate.
func (r *ScenarioResult) Render() string {
	var b strings.Builder
	s := r.Spec
	arrival := s.Arrival
	if s.ArrivalShape != 0 {
		arrival = fmt.Sprintf("%s(%g)", s.Arrival, s.ArrivalShape)
	}
	fmt.Fprintf(&b, "scenario %q: %d tenants, %d requests/day, arrival %s, %d diurnal phases\n",
		s.Name, len(s.Tenants), s.Requests, arrival, len(s.Phases))
	fmt.Fprintf(&b, "%-18s %-16s %-12s %7s %9s %10s %10s %8s\n",
		"tenant", "app", "slo", "weight", "requests", "base-mpki", "ispy-mpki", "delta")
	for i := range r.BaseRows {
		writeRow(&b, &r.BaseRows[i], &r.ISPYRows[i], false)
	}
	baseSLO, ispySLO := traffic.SLORows(r.BaseRows), traffic.SLORows(r.ISPYRows)
	for i := range baseSLO {
		writeRow(&b, &baseSLO[i], &ispySLO[i], true)
	}
	speedup := 0.0
	if r.ISPY.Cycles > 0 {
		speedup = float64(r.Base.Cycles) / float64(r.ISPY.Cycles)
	}
	fmt.Fprintf(&b, "cycles %d -> %d  speedup %.4fx  L1I misses %d -> %d\n",
		r.Base.Cycles, r.ISPY.Cycles, speedup, r.Base.L1IMisses, r.ISPY.L1IMisses)
	return b.String()
}

func writeRow(b *strings.Builder, base, ispy *traffic.TenantRow, slo bool) {
	name, app := base.Name, base.App
	if slo {
		name, app = "slo:"+base.SLO, "-"
	}
	bm, im := traffic.MPKI(base), traffic.MPKI(ispy)
	delta := 0.0
	if bm > 0 {
		delta = 100 * (bm - im) / bm
	}
	fmt.Fprintf(b, "%-18s %-16s %-12s %7.2f %9d %10.3f %10.3f %7.1f%%\n",
		name, app, base.SLO, base.Weight, base.Requests, bm, im, delta)
}
