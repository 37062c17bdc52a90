// Package vetting implements ispy-vet, the repository's from-scratch static
// determinism and invariant analyzer. It is built only on the standard
// library's go/parser and go/types (no golang.org/x/tools), preserving the
// repo's stdlib-only rule, and exists because the whole evaluation rests on
// bit-identical reproducibility: the golden-equivalence oracle (DESIGN.md §9)
// compares the fast-path simulator against sim.RunReference field-for-field,
// and that comparison is only trustworthy while every deterministic layer —
// workload generation → profiling → analysis → simulation → reporting —
// stays free of Go's classic nondeterminism traps.
//
// Seven passes run over the type-checked module (DESIGN.md §10). The four
// local ones:
//
//   - determinism: in the deterministic packages, flag `range` over
//     map-typed values whose body has order-dependent effects (appends
//     without an adjacent sort, calls with unknown effects, float
//     accumulation, early exits) plus any call to time.Now, math/rand, or
//     environment reads.
//   - stats: every exported field of sim.Stats must be read somewhere
//     outside package sim, so a new counter cannot silently escape the
//     golden comparison and the artifact serializer.
//   - concurrency: locks held across Wait calls or channel operations.
//   - errors: unchecked or blank-assigned error returns in the I/O-handling
//     packages (traceio, artifacts, faults, resilience).
//
// Three more run on a shared inter-procedural engine (CHA call graph,
// per-function SSA-lite IR, module-wide flow propagation): hotpath (the
// steady-state kernel never allocates and calls only pure code), dtaint
// (map-iteration order never reaches a stat, artifact, or response), and
// purity (operational state — clocks, breaker and telemetry reads — never
// reaches a response body or rendered report outside the sanctioned
// /statusz sink).
//
// Shared state of spawned goroutines, goroutine joins, request contexts and
// cache-key coverage are guarded by tests instead: `go test -race`, and
// behavioural tests in internal/server and internal/artifacts.
//
// The passes fan out concurrently over a bounded worker group once the
// module is loaded; everything they share is immutable by then, and
// findings are re-assembled in canonical order, so output is identical to
// a serial run.
//
// Waivers are first-class: a `//ispy:<directive> <reason>` comment on the
// flagged line (or the line above) suppresses one pass at that site and is
// counted; a waiver that no longer suppresses anything is itself reported,
// so stale annotations cannot accumulate.
package vetting

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Pass names, as printed in diagnostics (file:line: pass: message).
const (
	PassDeterminism = "determinism"
	PassStats       = "stats"
	PassConcurrency = "concurrency"
	PassErrors      = "errors"
	PassHotPath     = "hotpath"
	PassDTaint      = "dtaint"
	PassPurity      = "purity"
	PassWaiver      = "waiver"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
	// Advisory findings (stale waivers) fail the gate only under -strict.
	Advisory bool
}

// String renders the diagnostic in the gate's canonical
// `file:line: pass: message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pass, d.Message)
}

// StatsRule requires every exported field of one struct type to be
// referenced outside its defining package.
type StatsRule struct {
	PkgPath string
	Type    string
}

// KeyRule names one struct type by package path and name. The purity pass
// reads them as Config.PuritySinkTypes: response types whose exported
// fields must stay pure functions of the request.
type KeyRule struct {
	PkgPath string
	Type    string
}

// Config selects what the passes enforce. The zero value runs only the
// module-wide concurrency pass and whatever rules are listed.
type Config struct {
	// DeterministicPkgs are the import paths the determinism pass covers.
	DeterministicPkgs []string
	// ErrorPkgs are the import paths the discarded-errors pass covers.
	ErrorPkgs []string
	// StatsRules are the exhaustiveness rules.
	StatsRules []StatsRule
	// HotPathRoots are the entry points (pkgpath.Func, pkgpath.Type.Method;
	// an interface method expands to every module implementation) from which
	// the hotpath pass proves the steady-state kernel allocation-free.
	HotPathRoots []string
	// PureExternal are import-path prefixes of external packages the hot
	// path may call (pure, non-allocating).
	PureExternal []string
	// SinkPkgs are import paths whose API calls count as dtaint sinks
	// (serialized artifacts, rendered report rows) in addition to the
	// exported fields of the StatsRules types.
	SinkPkgs []string
	// ImpureCalls are external functions whose results are impure for the
	// purity pass — wall clock, host identity ("pkgpath.Func").
	ImpureCalls []string
	// ImpureTypes are module types holding operational state
	// ("pkgpath.Type"): their fields and method results are impurity
	// sources.
	ImpureTypes []string
	// PuritySinkTypes are response types whose exported fields must stay
	// pure functions of the request.
	PuritySinkTypes []KeyRule
	// PurityRenderers are functions whose results must stay pure (report
	// renderers compared byte-for-byte by the golden tests).
	PurityRenderers []string
	// PuritySanctioned are functions allowed to publish operational state
	// (the /statusz handler); impurity arriving at a sink inside their
	// bodies is not a finding.
	PuritySanctioned []string
}

// DefaultConfig returns the repository's rules: the deterministic layers
// from ISA to trace serialization, sim.Stats exhaustiveness, error hygiene
// in the packages that touch the filesystem, and the roots, sinks and
// sources of the inter-procedural passes.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"ispy/internal/isa",
			"ispy/internal/cfg",
			"ispy/internal/core",
			"ispy/internal/workload",
			"ispy/internal/profile",
			"ispy/internal/asmdb",
			"ispy/internal/lbr",
			"ispy/internal/bloom",
			"ispy/internal/hashx",
			"ispy/internal/rng",
			"ispy/internal/sim",
			"ispy/internal/cache",
			"ispy/internal/traceio",
			"ispy/internal/traffic",
		},
		ErrorPkgs: []string{
			"ispy/internal/traceio",
			"ispy/internal/artifacts",
			"ispy/internal/faults",
			"ispy/internal/resilience",
		},
		StatsRules: []StatsRule{
			{PkgPath: "ispy/internal/sim", Type: "Stats"},
			// The service response is the server's sim.Stats analogue: every
			// exported field must reach a consumer outside the package, and
			// (dtaint) none may take map-iteration-ordered data.
			{PkgPath: "ispy/internal/server", Type: "AnalyzeResponse"},
		},
		HotPathRoots: []string{
			"ispy/internal/sim.Run",
			"ispy/internal/sim.BatchSource.NextN",
			"ispy/internal/cache.Hierarchy.FetchI",
			"ispy/internal/cache.Hierarchy.PrefetchI",
		},
		PureExternal: []string{"math", "math/bits"},
		SinkPkgs: []string{
			"ispy/internal/traceio",
			"ispy/internal/traffic",
			"ispy/internal/metrics",
			"ispy/internal/server",
		},
		ImpureCalls: []string{
			"time.Now", "time.Since", "time.Until",
			"os.Getpid", "os.Hostname", "os.Getenv",
			"runtime.NumGoroutine", "runtime.NumCPU",
		},
		ImpureTypes: []string{
			"ispy/internal/resilience.Breaker",
			"ispy/internal/metrics.Requests",
			"ispy/internal/metrics.Telemetry",
		},
		PuritySinkTypes: []KeyRule{
			{PkgPath: "ispy/internal/server", Type: "AnalyzeResponse"},
			{PkgPath: "ispy/internal/server", Type: "StatsSummary"},
			{PkgPath: "ispy/internal/server", Type: "PlanSummary"},
			{PkgPath: "ispy/internal/server", Type: "TenantSummary"},
			// Status is the /statusz body: it exists to publish operational
			// state, so it is a sink type whose one writer is sanctioned.
			{PkgPath: "ispy/internal/server", Type: "Status"},
		},
		PurityRenderers: []string{
			"ispy/internal/experiments.ScenarioResult.Render",
		},
		PuritySanctioned: []string{
			"ispy/internal/server.Server.handleStatusz",
		},
	}
}

// PassTiming is one pass's wall time, printed under -v.
type PassTiming struct {
	Pass    string
	Elapsed time.Duration
}

// Result is one analyzer run's findings plus the waivers in effect.
type Result struct {
	Diags []Diagnostic
	// Suppressed are findings a waiver silenced (reported by -json with
	// waived:true so the annotation burden stays visible).
	Suppressed []Diagnostic
	Waivers    []*Waiver
	// Timings are per-pass wall times in canonical pass order.
	Timings []PassTiming
}

// passResult is one pass's output slot. Each worker goroutine writes only
// its own slot (disjoint-slot fan-out), so the slice needs no lock; the
// WaitGroup join publishes every slot to the collector.
type passResult struct {
	diags   []Diagnostic
	elapsed time.Duration
}

// Run executes every pass over the loaded packages and returns the sorted
// findings. Waivers are collected from all packages first so each pass can
// consult them; unused and malformed waivers become diagnostics themselves.
// The inter-procedural passes (hotpath, dtaint, purity) share one
// Analysis — the call graph and IR are built once, single-threaded, before
// the passes fan out over a bounded worker group.
// The fan-out is read-only: the loaded module, call graph, and IR are
// immutable by then, and the waiver set locks its use-marking internally.
// Findings are concatenated in canonical pass order and then
// position-sorted, so concurrency never changes the output.
func Run(pkgs []*Package, cfg Config) *Result {
	ws := collectWaivers(pkgs)
	a := NewAnalysis(pkgs, ws)

	type passRun struct {
		name string
		fn   func() []Diagnostic
	}
	var runs []passRun
	add := func(name string, cond bool, fn func() []Diagnostic) {
		if cond {
			runs = append(runs, passRun{name, fn})
		}
	}
	add(PassDeterminism, true, func() []Diagnostic { return checkDeterminism(pkgs, cfg, ws) })
	add(PassStats, true, func() []Diagnostic { return checkStats(pkgs, cfg) })
	add(PassConcurrency, true, func() []Diagnostic { return checkConcurrency(pkgs) })
	add(PassErrors, true, func() []Diagnostic { return checkErrors(pkgs, cfg, ws) })
	add(PassHotPath, len(cfg.HotPathRoots) > 0, func() []Diagnostic { return checkHotPath(a, cfg, ws) })
	add(PassDTaint, len(cfg.StatsRules) > 0 || len(cfg.SinkPkgs) > 0,
		func() []Diagnostic { return checkDTaint(a, cfg, ws) })
	add(PassPurity, len(cfg.PuritySinkTypes) > 0 || len(cfg.PurityRenderers) > 0,
		func() []Diagnostic { return checkPurity(a, cfg, ws) })

	// Bounded fan-out into per-pass slots. Workers only read the shared
	// analysis; ordering is restored below, so scheduling cannot leak into
	// the findings.
	results := make([]passResult, len(runs))
	workers := runtime.NumCPU()
	if workers > len(runs) {
		workers = len(runs)
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, r := range runs {
		sem <- struct{}{}
		wg.Add(1)
		go func(slot *passResult, r passRun) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			slot.diags = r.fn()
			slot.elapsed = time.Since(start)
		}(&results[i], r)
	}
	wg.Wait()

	res := &Result{}
	var diags []Diagnostic
	for i, r := range runs {
		diags = append(diags, results[i].diags...)
		res.Timings = append(res.Timings, PassTiming{Pass: r.name, Elapsed: results[i].elapsed})
	}
	diags = append(diags, ws.diags()...)
	sortDiags(diags)
	sortDiags(ws.suppressed)
	res.Diags = diags
	res.Suppressed = ws.suppressed
	res.Waivers = ws.all
	return res
}

// sortDiags orders findings by position then pass then message, so output
// is deterministic regardless of pass scheduling or map iteration inside
// the analyzer itself (which is not one of the deterministic packages — it
// sorts instead).
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}

func stringSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
