// Package server is ispy-as-a-service: a long-running HTTP front end over
// the experiments harness. Each request builds a short-lived Lab on shared
// infrastructure (one artifact cache and one telemetry sink —
// experiments.Shared), so concurrent requests share warm artifacts, while
// per-request state (memos, report) stays isolated — a panicking request can
// never poison a later one. A request computes on its own goroutine, one
// Lab.Attempt that runs no cells, so the server has no worker pool: nothing
// bounds how many requests compute at once.
//
// Robustness model (DESIGN.md §12):
//
//   - Each request is one attempt. The pipeline is deterministic, so a
//     failed computation would fail again on the same inputs; a compute
//     failure answers one structured 500.
//   - Repeated artifact-layer failures trip a circuit breaker fed by the
//     cache's OnIO observer; while the circuit is open, requests are served
//     in degraded mode (cache bypassed, everything recomputed). Because the
//     pipeline is deterministic and response bodies carry no timing, a
//     degraded response is byte-identical to a cached one.
//   - Per-request deadlines propagate through the lab into artifact-cache
//     I/O and computation; an expired request answers 504 with a structured
//     error, and its abandoned pipeline stops at its next computation.
//   - SIGTERM drains: readiness flips to 503, new work is shed, in-flight
//     requests complete (http.Server.Shutdown semantics).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ispy/internal/artifacts"
	"ispy/internal/experiments"
	"ispy/internal/faults"
	"ispy/internal/metrics"
	"ispy/internal/resilience"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// Config configures a Server. The zero value serves quick-budget analyses
// with no cache and a 30s default deadline.
type Config struct {
	// Lab is the base lab configuration each request derives from (budget
	// fields only; Apps/Jobs/CacheDir are managed by the server). Zero
	// budgets take experiments.QuickConfig values.
	Lab experiments.Config
	// CacheDir, when non-empty, persists artifacts across requests.
	CacheDir string
	// DefaultTimeout/MaxTimeout bound per-request deadlines: requests that
	// name no timeout get DefaultTimeout (30s), and no request may exceed
	// MaxTimeout (2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// BreakerThreshold / BreakerCooldown configure the artifact-layer
	// circuit breaker (resilience.NewBreaker defaults apply to zeros).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Faults, when non-nil, arms deterministic chaos at the harness's
	// tagged sites (compute/*, artifacts.read, artifacts.write). Soak only.
	Faults *faults.Injector
	// Log, when non-nil, receives one line per degraded or shed request.
	Log io.Writer
}

// Server is the analysis service. Create with New; serve via Handler or
// Serve. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	cache   *artifacts.Cache
	tel     *metrics.Telemetry
	reqs    *metrics.Requests
	breaker *resilience.Breaker
	mux     *http.ServeMux

	draining atomic.Bool
}

// New builds a server: defaults applied, cache opened (with the breaker
// wired to its I/O observer and chaos armed, once — labs never mutate a
// shared cache's hooks).
func New(cfg Config) (*Server, error) {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	q := experiments.QuickConfig()
	if cfg.Lab.MeasureInstrs == 0 {
		cfg.Lab.MeasureInstrs = q.MeasureInstrs
	}
	if cfg.Lab.WarmupInstrs == 0 {
		cfg.Lab.WarmupInstrs = q.WarmupInstrs
	}
	if cfg.Lab.SweepInstrs == 0 {
		cfg.Lab.SweepInstrs = q.SweepInstrs
	}
	if cfg.Lab.SweepWarmup == 0 {
		cfg.Lab.SweepWarmup = q.SweepWarmup
	}

	s := &Server{
		cfg:     cfg,
		tel:     metrics.NewTelemetry(nil),
		reqs:    metrics.NewRequests(),
		breaker: resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	if cfg.CacheDir != "" {
		c, err := artifacts.Open(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: cache: %w", err)
		}
		c.OnEvict(func(kind string) { s.tel.CacheEvict(kind) })
		c.OnIO(func(op string, err error) { s.breaker.Record(err == nil) })
		c.SetFaults(cfg.Faults)
		s.cache = c
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain flips the server into draining mode: /readyz answers 503 and
// new analysis requests are shed with a structured error. In-flight
// requests are unaffected.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logf("draining: new analysis requests will be shed")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Requests returns the per-request telemetry counters.
func (s *Server) Requests() *metrics.Requests { return s.reqs }

// Serve serves s on l until ctx is cancelled, then drains: readiness flips,
// the listener closes, and in-flight requests get drainTimeout to finish.
// A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, l net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.StartDrain()
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		done <- hs.Shutdown(sctx)
	}()
	if err := hs.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Serve returned because Shutdown closed the listener; wait for the
	// drain itself so in-flight requests finish before we report done.
	if ctx.Err() != nil {
		return <-done
	}
	return nil
}

// logf writes one operational log line when Config.Log is set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "ispyd: "+format+"\n", args...)
}

// labConfig derives the per-request lab configuration: the request's apps,
// the shared budgets (rescaled when the request names an instruction
// budget), chaos armed at compute sites, and a one-slot pool, since a
// request runs no cells.
func (s *Server) labConfig(apps []string, instrs uint64) experiments.Config {
	lcfg := s.cfg.Lab
	lcfg.Apps = apps
	lcfg.Jobs = 1
	lcfg.CacheDir = ""
	lcfg.Verbose = false
	lcfg.Faults = s.cfg.Faults
	if instrs > 0 {
		lcfg = lcfg.WithMeasureInstrs(instrs)
	}
	return lcfg
}

// analyzeApp runs the full pipeline (baseline run, I-SPY analysis +
// coalescing + injection, evaluation run) for one app under ctx. The
// response reads only the summary of the build's plan, so a warm request is
// three cache-entry reads that build neither the injected program nor the
// prefetch list.
func (s *Server) analyzeApp(ctx context.Context, app string, instrs uint64) (*AnalyzeResponse, error) {
	if err := knownApp(app); err != nil {
		return nil, err
	}
	lcfg := s.labConfig([]string{app}, instrs)
	return s.analyze(ctx, lcfg, "serve/"+app, func(lab *experiments.Lab) (*AnalyzeResponse, error) {
		a := lab.App(app)
		base, plan, ispy := a.Base(), a.ISPYPlan(), a.ISPYStats()
		return newAnalyzeResponse(app, lcfg.MeasureInstrs, base, ispy, plan), nil
	})
}

// analyzeScenario evaluates a multi-tenant traffic scenario under ctx. The
// scenario composition is seeded by the spec, so the response is a pure
// function of (scenario, instrs) and chaos-degraded responses stay
// byte-identical.
func (s *Server) analyzeScenario(ctx context.Context, spec *traffic.Spec, instrs uint64) (*AnalyzeResponse, error) {
	lcfg := s.labConfig(spec.Apps(), instrs)
	return s.analyze(ctx, lcfg, "serve/scenario/"+spec.Name, func(lab *experiments.Lab) (*AnalyzeResponse, error) {
		res, err := lab.Scenario(spec)
		if err != nil {
			return nil, err
		}
		return newScenarioResponse(lcfg.MeasureInstrs, res), nil
	})
}

// analyze runs body under ctx on a fresh lab over lcfg — the artifact cache
// bypassed while the circuit is open — as one lab.Attempt, so a panic is
// contained and answers a structured 500. site names the request in logs.
func (s *Server) analyze(ctx context.Context, lcfg experiments.Config, site string,
	body func(*experiments.Lab) (*AnalyzeResponse, error)) (*AnalyzeResponse, error) {
	cache := s.cache
	if cache != nil && !s.breaker.Allow() {
		cache = nil
		s.reqs.Degraded()
		s.logf("circuit open: serving %s without the artifact cache", site)
	}
	lab := experiments.NewLabShared(ctx, lcfg, experiments.Shared{Cache: cache, Telemetry: s.tel})
	if err := lab.Validate(); err != nil {
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_config", msg: err.Error()}
	}
	var resp *AnalyzeResponse
	err := lab.Attempt(site, "serve/analyze", func() (err error) {
		resp, err = body(lab)
		return err
	})
	if err != nil && ctx.Err() != nil {
		// The deadline, not the work it cut short, is what the client
		// should see.
		return nil, context.Cause(ctx)
	}
	return resp, err
}

// knownApp validates an app name against the workload presets.
func knownApp(app string) error {
	if app == "" {
		return &apiError{status: http.StatusBadRequest, code: "bad_request", msg: "missing app name"}
	}
	if _, err := workload.LookupParams(app); err != nil {
		return &apiError{status: http.StatusNotFound, code: "unknown_app", msg: err.Error()}
	}
	return nil
}
