// HTTP surface: request/response types, structured errors, and the route
// handlers. Response bodies are pure functions of the request — no wall
// clock, no degraded-mode markers — so identical inputs produce
// byte-identical bodies whether they were served cold, from cache, or with
// the circuit open. Operational state (counters, breaker) is exposed only
// through /statusz.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"ispy/internal/core"
	"ispy/internal/experiments"
	"ispy/internal/metrics"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// AnalyzeRequest is the POST /v1/analyze body. Exactly one of App and
// Scenario must be set.
type AnalyzeRequest struct {
	// App names a workload preset (workload.AppNames).
	App string `json:"app,omitempty"`
	// Scenario is a multi-tenant traffic scenario spec (the grammar of
	// docs/WORKLOADS.md); it is mutually exclusive with App.
	Scenario string `json:"scenario,omitempty"`
	// Instrs optionally overrides the measured instruction budget
	// (50e3–5e6; warmup and sweep budgets rescale proportionally).
	Instrs uint64 `json:"instrs,omitempty"`
	// TimeoutMillis optionally bounds this request's deadline; it is
	// clamped to the server's MaxTimeout.
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`
}

// StatsSummary is the response-facing slice of a simulation run.
type StatsSummary struct {
	Instrs              uint64 `json:"instrs"`
	Cycles              uint64 `json:"cycles"`
	L1IMisses           uint64 `json:"l1i_misses"`
	StallCycles         uint64 `json:"stall_cycles"`
	PrefetchInstrs      uint64 `json:"prefetch_instrs"`
	PrefetchLinesIssued uint64 `json:"prefetch_lines_issued"`
}

// PlanSummary is the response-facing slice of an injection plan.
type PlanSummary struct {
	Prefetches      int    `json:"prefetches"`
	Conditional     int    `json:"conditional"`
	Coalesced       int    `json:"coalesced"`
	MissesTotal     uint64 `json:"misses_total"`
	MissesPlanned   uint64 `json:"misses_planned"`
	MissesUncovered uint64 `json:"misses_uncovered"`
}

// TenantSummary is one tenant's (or SLO class's) slice of a scenario
// response: attributed requests and the MPKI movement.
type TenantSummary struct {
	Name     string  `json:"name"`
	App      string  `json:"app,omitempty"`
	SLO      string  `json:"slo"`
	Requests uint64  `json:"requests"`
	BaseMPKI float64 `json:"base_mpki"`
	ISPYMPKI float64 `json:"ispy_mpki"`
}

// AnalyzeResponse is the analysis result: baseline and I-SPY runs plus the
// injection-plan summary. It is a pure function of (App, Instrs) — or, for
// scenario requests, of (Scenario, Instrs) — never of timing.
type AnalyzeResponse struct {
	App string `json:"app,omitempty"`
	// Scenario echoes the scenario name for scenario requests; Tenants and
	// SLOClasses then carry the per-tenant and per-class attribution.
	Scenario   string          `json:"scenario,omitempty"`
	Instrs     uint64          `json:"instrs"`
	Baseline   StatsSummary    `json:"baseline"`
	ISPY       StatsSummary    `json:"ispy"`
	Plan       PlanSummary     `json:"plan"`
	Tenants    []TenantSummary `json:"tenants,omitempty"`
	SLOClasses []TenantSummary `json:"slo_classes,omitempty"`
	// Speedup is baseline cycles over I-SPY cycles.
	Speedup float64 `json:"speedup"`
}

func statsSummary(s *sim.Stats) StatsSummary {
	return StatsSummary{
		Instrs:              s.BaseInstrs,
		Cycles:              s.Cycles,
		L1IMisses:           s.L1IMisses,
		StallCycles:         s.StallCycles,
		PrefetchInstrs:      s.DynPrefetchInstrs,
		PrefetchLinesIssued: s.PrefetchLinesIssued,
	}
}

// newAnalyzeResponse flattens the pipeline outputs. Plan counters come from
// slice iteration only: the response must never take map-iteration order.
func newAnalyzeResponse(app string, instrs uint64, base, ispy *sim.Stats, plan *core.Plan) *AnalyzeResponse {
	ps := PlanSummary{
		Prefetches:      len(plan.Prefetches),
		MissesTotal:     plan.MissesTotal,
		MissesPlanned:   plan.MissesPlanned,
		MissesUncovered: plan.MissesUncovered,
	}
	for i := range plan.Prefetches {
		if len(plan.Prefetches[i].CtxBlocks) > 0 {
			ps.Conditional++
		}
		if len(plan.Prefetches[i].Targets) > 1 {
			ps.Coalesced++
		}
	}
	resp := &AnalyzeResponse{App: app, Instrs: instrs, Baseline: statsSummary(base), ISPY: statsSummary(ispy), Plan: ps}
	if resp.ISPY.Cycles > 0 {
		resp.Speedup = float64(resp.Baseline.Cycles) / float64(resp.ISPY.Cycles)
	}
	return resp
}

// newScenarioResponse flattens a scenario result: aggregate stats plus
// per-tenant and per-SLO-class rows, all from slice iteration.
func newScenarioResponse(instrs uint64, res *experiments.ScenarioResult) *AnalyzeResponse {
	resp := &AnalyzeResponse{
		Scenario: res.Spec.Name,
		Instrs:   instrs,
		Baseline: statsSummary(res.Base),
		ISPY:     statsSummary(res.ISPY),
	}
	row := func(base, ispy *traffic.TenantRow) TenantSummary {
		return TenantSummary{
			Name:     base.Name,
			App:      base.App,
			SLO:      base.SLO,
			Requests: base.Requests,
			BaseMPKI: traffic.MPKI(base),
			ISPYMPKI: traffic.MPKI(ispy),
		}
	}
	for i := range res.BaseRows {
		resp.Tenants = append(resp.Tenants, row(&res.BaseRows[i], &res.ISPYRows[i]))
	}
	baseSLO, ispySLO := traffic.SLORows(res.BaseRows), traffic.SLORows(res.ISPYRows)
	for i := range baseSLO {
		resp.SLOClasses = append(resp.SLOClasses, row(&baseSLO[i], &ispySLO[i]))
	}
	if resp.ISPY.Cycles > 0 {
		resp.Speedup = float64(resp.Baseline.Cycles) / float64(resp.ISPY.Cycles)
	}
	return resp
}

// Status is the GET /statusz body: operational counters, never part of the
// deterministic-response contract.
type Status struct {
	Requests metrics.RequestSnapshot `json:"requests"`
	Breaker  string                  `json:"breaker"`
	Trips    uint64                  `json:"breaker_trips"`
	Cache    bool                    `json:"cache_enabled"`
	Draining bool                    `json:"draining"`
	Apps     []string                `json:"apps"`
}

// apiError is a structured HTTP-facing error.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.code + ": " + e.msg }

// errorBody is the wire shape of every non-2xx response.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

const (
	maxAnalyzeBody = 1 << 20  // 1 MiB of JSON is already absurd
	maxProfileBody = 64 << 20 // uploaded traceio profiles
	minInstrs      = 50_000
	maxInstrs      = 5_000_000
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("POST /v1/analyze", s.instrument(s.serveAnalyze))
	s.mux.HandleFunc("POST /v1/profile/analyze", s.instrument(s.serveProfileAnalyze))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleStatusz publishes operational state. It is the one sink the
// ispy-vet purity pass sanctions (DESIGN.md §10, pass 12): breaker state,
// request counters, and drain status may reach this body and no other —
// every analysis response must stay a pure function of the request.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	st := Status{
		Requests: s.reqs.Snapshot(),
		Breaker:  s.breaker.State().String(),
		Trips:    s.breaker.Trips(),
		Cache:    s.cache.Enabled(),
		Draining: s.Draining(),
		Apps:     workload.AppNames,
	}
	writeJSON(w, http.StatusOK, st)
}

// instrument wraps an analysis handler with request accounting and drain
// shedding. The wrapped handler returns the status it wrote plus whether
// the failure was a deadline expiry.
func (s *Server) instrument(h func(w http.ResponseWriter, r *http.Request) (status int, timeout bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			s.reqs.Shed()
			writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against another instance")
			return
		}
		start := s.reqs.Begin()
		status, timeout := h(w, r)
		s.reqs.End(start, status, timeout)
	}
}

// deadline derives the request context: the client's requested timeout,
// clamped to the server's maximum, default when unspecified.
func (s *Server) deadline(r *http.Request, millis int64) (context.Context, context.CancelFunc, time.Duration) {
	d := s.cfg.DefaultTimeout
	if millis > 0 {
		d = time.Duration(millis) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), d,
		fmt.Errorf("server: request exceeded its %v deadline: %w", d, context.DeadlineExceeded))
	return ctx, cancel, d
}

func (s *Server) serveAnalyze(w http.ResponseWriter, r *http.Request) (int, bool) {
	var req AnalyzeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAnalyzeBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error()), false
	}
	if req.Instrs != 0 && (req.Instrs < minInstrs || req.Instrs > maxInstrs) {
		return writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("instrs %d outside [%d, %d]", req.Instrs, minInstrs, maxInstrs)), false
	}
	if req.Scenario != "" {
		if req.App != "" {
			return writeError(w, http.StatusBadRequest, "bad_request",
				"app and scenario are mutually exclusive; set exactly one"), false
		}
		// Parse up front: a malformed spec or unknown tenant preset is the
		// client's error (the message names the offending tenant), never a
		// pipeline failure.
		spec, err := traffic.ParseSpec(req.Scenario)
		if err != nil {
			return writeError(w, http.StatusBadRequest, "bad_scenario", err.Error()), false
		}
		ctx, cancel, _ := s.deadline(r, req.TimeoutMillis)
		defer cancel()
		return s.respond(ctx, w, func(ctx context.Context) (*AnalyzeResponse, error) {
			return s.analyzeScenario(ctx, spec, req.Instrs)
		})
	}
	if err := knownApp(req.App); err != nil {
		return s.writeFailure(w, err), false
	}
	ctx, cancel, _ := s.deadline(r, req.TimeoutMillis)
	defer cancel()
	return s.respond(ctx, w, func(ctx context.Context) (*AnalyzeResponse, error) {
		return s.analyzeApp(ctx, req.App, req.Instrs)
	})
}

func (s *Server) serveProfileAnalyze(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query()
	var instrs uint64
	if v := q.Get("instrs"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n < minInstrs || n > maxInstrs {
			return writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("instrs %q outside [%d, %d]", v, minInstrs, maxInstrs)), false
		}
		instrs = n
	}
	var millis int64
	if v := q.Get("timeout_millis"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return writeError(w, http.StatusBadRequest, "bad_request", "bad timeout_millis "+v), false
		}
		millis = n
	}
	pd, err := traceio.ReadProfile(http.MaxBytesReader(w, r.Body, maxProfileBody))
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad_profile", err.Error()), false
	}
	prof, err := rebindProfile(pd)
	if err != nil {
		return s.writeFailure(w, err), false
	}
	ctx, cancel, _ := s.deadline(r, millis)
	defer cancel()
	return s.respond(ctx, w, func(ctx context.Context) (*AnalyzeResponse, error) {
		return s.analyzeProfile(ctx, prof, instrs)
	})
}

// respond runs the pipeline in its own goroutine so an expired deadline
// answers immediately — the abandoned straggler stops at its next
// computation, and its cache stores no-op under the dead context. A panic
// in run answers a structured 500 instead of killing the process: the lab
// path contains its own panics (Lab.Attempt), the uploaded-profile path
// has nothing else to.
func (s *Server) respond(ctx context.Context, w http.ResponseWriter, run func(context.Context) (*AnalyzeResponse, error)) (int, bool) {
	type result struct {
		resp *AnalyzeResponse
		err  error
	}
	// The response straggler is abandoned by design when the deadline
	// expires: its ctx is dead, so its cache stores no-op, and the one-slot
	// channel takes its result, so it exits (DESIGN.md §12).
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.logf("analysis panicked: %v\n%s", r, debug.Stack())
				ch <- result{err: fmt.Errorf("analysis panicked: %v", r)}
			}
		}()
		resp, err := run(ctx)
		ch <- result{resp, err}
	}()
	select {
	case <-ctx.Done():
		return s.writeFailure(w, context.Cause(ctx)), true
	case res := <-ch:
		if res.err != nil {
			timeout := errors.Is(res.err, context.DeadlineExceeded)
			return s.writeFailure(w, res.err), timeout
		}
		return writeJSON(w, http.StatusOK, res.resp), false
	}
}

// writeFailure maps a pipeline error to its structured HTTP shape.
func (s *Server) writeFailure(w http.ResponseWriter, err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return writeError(w, ae.status, ae.code, ae.msg)
	case errors.Is(err, context.DeadlineExceeded):
		return writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	case errors.Is(err, context.Canceled):
		return writeError(w, http.StatusServiceUnavailable, "canceled", err.Error())
	}
	return writeError(w, http.StatusInternalServerError, "internal", err.Error())
}

// writeJSON writes v as the response body and returns the status it sent.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "internal", "encoding response: "+err.Error())
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b) // the client hung up; nothing useful to do
	return status
}

// writeError writes the structured error body and returns status.
func writeError(w http.ResponseWriter, status int, code, msg string) int {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	b, _ := json.Marshal(body) // fixed struct of strings cannot fail
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b) // best-effort error delivery
	return status
}

// rebindProfile reconstructs a live profile from an uploaded one by
// regenerating the deterministic workload it names (traceio's Rebind, which
// cmd/ispy-profile uses for on-disk profiles too).
func rebindProfile(pd *traceio.ProfileData) (*profile.Profile, error) {
	if err := knownApp(pd.WorkloadName); err != nil {
		return nil, err
	}
	prof, err := pd.Rebind()
	if err != nil {
		return nil, &apiError{status: http.StatusUnprocessableEntity, code: "stale_profile", msg: err.Error()}
	}
	return prof, nil
}

// analyzeProfile serves an uploaded profile: the analysis runs over the
// uploaded miss evidence directly (no lab, no cache — the profile is the
// client's, not an artifact of ours), then baseline and I-SPY programs are
// simulated under the derived budget.
func (s *Server) analyzeProfile(ctx context.Context, prof *profile.Profile, instrs uint64) (*AnalyzeResponse, error) {
	scfg := s.labConfig([]string{prof.Workload.Name}, instrs).SimConfig(prof.Workload.Params.BackendCPI)
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	b := core.BuildISPY(prof, scfg, core.DefaultOptions())
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	base := sim.Run(prof.Workload.Prog, workload.NewExecutor(prof.Workload, prof.Input), scfg, nil)
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	ispy := sim.Run(b.Prog, workload.NewExecutor(prof.Workload, prof.Input), scfg, nil)
	return newAnalyzeResponse(prof.Workload.Name, scfg.MaxInstrs, base, ispy, b.Plan), nil
}
