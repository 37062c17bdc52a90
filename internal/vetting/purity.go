// The purity pass: statically prove the response-purity contract
// (DESIGN.md §12) — service response bodies and rendered reports are pure
// functions of the request, never of how the serving went. The chaos soak
// observes this dynamically on one schedule; this pass quantifies over all
// of them on the PR 5 engine.
//
// Impurity sources, all configured:
//
//   - wall-clock and host-identity reads: external calls (time.Now,
//     os.Getpid, runtime.NumGoroutine, ...) named by Config.ImpureCalls.
//     Their per-site result keys (extRetK) seed the taint.
//   - operational state: module types named by Config.ImpureTypes
//     (the circuit breaker, request counters, telemetry) — every struct
//     field and every method result of such a type is a source.
//
// Sinks are the exported fields of the response types named by
// Config.PuritySinkTypes and the results of the renderers named by
// Config.PurityRenderers (experiments.ScenarioResult.Render). A finding
// fires where tainted data arrives at a sink — except inside the functions
// named by Config.PuritySanctioned (/statusz exists to publish operational
// state; its body is the one sanctioned impurity sink). `//ispy:pure
// <reason>` at the arrival site waives one finding.
//
// Over-approximations, chosen to err toward noise at the sink: flow is
// condition-blind and instance-insensitive (a breaker trip count tainting
// any field of a response type flags that field everywhere), and impure
// method results are sourced whether or not the particular call site's
// receiver is operational state.
package vetting

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// checkPurity runs the response-purity proof over the analysis.
func checkPurity(a *Analysis, cfg Config, ws *waiverSet) []Diagnostic {
	if len(cfg.PuritySinkTypes) == 0 && len(cfg.PurityRenderers) == 0 {
		return nil
	}
	var diags []Diagnostic
	sources := puritySources(a, cfg)
	if len(sources) == 0 {
		return diags
	}
	sanction := sanctionedRanges(a, cfg, &diags)
	st := buildFlowGraphExcluding(a, sanction, errorChannelKeys(a)).propagate(sources)

	report := func(d Diagnostic) {
		if !ws.waive(d) {
			diags = append(diags, d)
		}
	}

	// Sink 1: exported fields of the response types. The finding anchors at
	// the position where taint arrived at the field — a concrete store the
	// author can fix or waive — unless that store sits in a sanctioned body.
	for _, rule := range cfg.PuritySinkTypes {
		for _, f := range ruleFields(a.pkgs, StatsRule(rule)) {
			tr, ok := st.tainted([]flowKey{fieldK(f)})
			if !ok {
				continue
			}
			if sanction.covers(tr.via) {
				continue
			}
			report(Diagnostic{Pos: tr.via, Pass: PassPurity,
				Message: fmt.Sprintf("impure value reaches response field %s.%s: %s",
					rule.Type, f.Name(), tr.describe())})
		}
	}

	// Sink 2: renderer results. These functions produce report text the
	// golden tests compare byte-for-byte; any impurity in the result string
	// breaks warm-vs-cold identity.
	for _, spec := range cfg.PurityRenderers {
		roots, err := a.graph.ResolveRoot(spec)
		if err != nil {
			diags = append(diags, Diagnostic{Pass: PassPurity,
				Message: fmt.Sprintf("bad renderer %q: %v", spec, err)})
			continue
		}
		for _, r := range roots {
			sig := r.Sig()
			if sig == nil || r.Fn == nil {
				continue
			}
			for i := 0; i < sig.Results().Len(); i++ {
				tr, ok := st.tainted([]flowKey{retK(r.Fn, i)})
				if !ok {
					continue
				}
				report(Diagnostic{Pos: tr.via, Pass: PassPurity,
					Message: fmt.Sprintf("impure value reaches the result of renderer %s: %s",
						spec, tr.describe())})
			}
		}
	}
	return diags
}

// puritySources assembles the impurity origins in deterministic order:
// impure external call results (per site, in node order), then impure-type
// fields and method results.
func puritySources(a *Analysis, cfg Config) []taintSource {
	var out []taintSource

	// Impure external calls, matched by "pkgpath.Func" against each call
	// site's resolved targets. Sites inside a package that declares an
	// ImpureType are skipped: the operational-state packages are the
	// impurity *boundary* — their clock reads surface through their fields
	// and method results, which are sources already — and sourcing the
	// constructor-time time.Now() would taint the returned handle itself,
	// flagging every value the handle is ever threaded past.
	impureCall := stringSet(cfg.ImpureCalls)
	statePkg := make(map[string]bool, len(cfg.ImpureTypes))
	for _, spec := range cfg.ImpureTypes {
		if i := strings.LastIndex(spec, "."); i >= 0 {
			statePkg[spec[:i]] = true
		}
	}
	if len(impureCall) > 0 {
		for _, n := range a.graph.moduleNodes() {
			ir := a.irs[n]
			if ir == nil {
				continue
			}
			if n.Pkg != nil && n.Pkg.Types != nil && statePkg[n.Pkg.Types.Path()] {
				continue
			}
			for _, rec := range ir.calls {
				for _, to := range rec.site.Targets {
					if to.Fn == nil || to.Fn.Pkg() == nil {
						continue
					}
					name := to.Fn.Pkg().Path() + "." + to.Fn.Name()
					if !impureCall[name] {
						continue
					}
					out = append(out, taintSource{
						key: extRetK(rec.site.Call), pos: rec.site.Pos,
						what: fmt.Sprintf("%s at %s:%d", name, rec.site.Pos.Filename, rec.site.Pos.Line),
					})
					break
				}
			}
		}
	}

	// Impure module types: fields plus method results.
	for _, spec := range cfg.ImpureTypes {
		i := strings.LastIndex(spec, ".")
		if i < 0 {
			continue
		}
		pkgPath, typeName := spec[:i], spec[i+1:]
		p := findPackage(a.pkgs, pkgPath)
		if p == nil {
			continue
		}
		tn, ok := p.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				out = append(out, taintSource{
					key: fieldK(f), pos: p.Fset.Position(f.Pos()),
					what: fmt.Sprintf("operational state %s.%s", typeName, f.Name()),
				})
			}
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			fn, ok := ms.At(i).Obj().(*types.Func)
			if !ok {
				continue
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil {
				continue
			}
			for ri := 0; ri < sig.Results().Len(); ri++ {
				out = append(out, taintSource{
					key: retK(fn, ri), pos: p.Fset.Position(fn.Pos()),
					what: fmt.Sprintf("operational state via %s.%s()", typeName, fn.Name()),
				})
			}
		}
	}

	return out
}

// lineRange is one sanctioned function body, as a file/line span.
type lineRange struct {
	file       string
	start, end int
}

// sanctionSet answers "does this position sit inside a sanctioned body".
type sanctionSet struct{ ranges []lineRange }

func (s sanctionSet) covers(pos token.Position) bool {
	for _, r := range s.ranges {
		if pos.Filename == r.file && pos.Line >= r.start && pos.Line <= r.end {
			return true
		}
	}
	return false
}

// buildFlowGraphExcluding is buildFlowGraph with the sanctioned bodies
// carved out (flow edges positioned inside them are dropped) and the
// blocked keys disconnected (edges touching them are dropped). Sanctioning
// must remove the body from the flow world, not just mute arrivals there —
// a Status composite holding breaker state is serialized through the same
// error-returning helpers every handler uses, and the taint would
// otherwise tunnel out of /statusz into every response.
func buildFlowGraphExcluding(a *Analysis, sanction sanctionSet, blocked map[flowKey]bool) *flowGraph {
	g := &flowGraph{succ: make(map[flowKey][]flowEdge)}
	for _, n := range a.graph.moduleNodes() {
		ir := a.irs[n]
		if ir == nil {
			continue
		}
		for _, e := range ir.flows {
			if sanction.covers(e.pos) || blocked[e.src] || blocked[e.dst] {
				continue
			}
			g.succ[e.src] = append(g.succ[e.src], e)
		}
	}
	return g
}

// errorChannelKeys collects the receiver and result keys of every module
// `Error() string` method. The purity propagation disconnects them: the
// engine is instance-insensitive and an interface call fans out to every
// implementation, so one operational datum wrapped in any error (say, a
// clock reading formatted into its message) would flow into the shared
// Error result keys and from there into every function that stringifies an
// error — branding all responses at once. Error strings are the error
// path's payload, not the measured result; the purity contract is about the
// latter.
func errorChannelKeys(a *Analysis) map[flowKey]bool {
	blocked := make(map[flowKey]bool)
	for _, n := range a.graph.moduleNodes() {
		sig := n.Sig()
		if n.Fn == nil || n.Fn.Name() != "Error" || sig == nil || sig.Recv() == nil {
			continue
		}
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			continue
		}
		if b, ok := sig.Results().At(0).Type().(*types.Basic); !ok || b.Kind() != types.String {
			continue
		}
		blocked[objK(sig.Recv())] = true
		blocked[retK(n.Fn, 0)] = true
	}
	return blocked
}

// sanctionedRanges resolves Config.PuritySanctioned to body line spans.
// The sanctioned region extends to lexically nested closures by
// construction — their bodies lie within the span.
func sanctionedRanges(a *Analysis, cfg Config, diags *[]Diagnostic) sanctionSet {
	var s sanctionSet
	for _, spec := range cfg.PuritySanctioned {
		roots, err := a.graph.ResolveRoot(spec)
		if err != nil {
			*diags = append(*diags, Diagnostic{Pass: PassPurity,
				Message: fmt.Sprintf("bad sanctioned sink %q: %v", spec, err)})
			continue
		}
		for _, r := range roots {
			body := r.Body()
			if body == nil {
				continue
			}
			start := r.Pkg.Fset.Position(body.Pos())
			end := r.Pkg.Fset.Position(body.End())
			s.ranges = append(s.ranges, lineRange{file: start.Filename, start: start.Line, end: end.Line})
		}
	}
	return s
}
