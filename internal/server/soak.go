// The chaos soak: an in-process, end-to-end graceful-degradation proof.
// It stands up three servers in sequence over real loopback HTTP —
//
//  1. a fault-free reference, to pin the canonical response bytes per app;
//  2. a chaos server armed with a seeded fault spec (latency, corrupt,
//     short, error, panic at compute/* and artifacts.*) hammered by
//     concurrent workers;
//  3. a clean server reopened over the chaos server's cache directory,
//     to prove the surviving cache state still serves canonical bytes
//     (no partial or corrupted entry was ever published);
//
// then SIGTERM-drains the last server under load. The invariants — every
// chaos response is either byte-identical to the reference or a structured
// error, readiness flips on drain, in-flight requests complete — are the
// "graceful degradation" contract of DESIGN.md §12, checked end to end.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"ispy/internal/faults"
)

// SoakConfig scales the chaos soak.
type SoakConfig struct {
	// Apps to cycle requests over (default: wordpress, tomcat).
	Apps []string
	// Scenario, when set, adds a multi-tenant scenario request (the spec
	// grammar of docs/WORKLOADS.md) to the cycle, so the soak also proves
	// scenario responses degrade gracefully and replay byte-identically.
	Scenario string
	// Workers × RequestsPerWorker chaos requests are issued (defaults 4×6).
	Workers           int
	RequestsPerWorker int
	// Instrs is the per-request instruction budget (default 60k).
	Instrs uint64
	// FaultSpec is the faults.ParseSpec chaos specification.
	FaultSpec string
	// Seed seeds the injector's firing decisions.
	Seed uint64
	// RequestTimeout bounds each chaos request (default 30s).
	RequestTimeout time.Duration
	// Out, when non-nil, receives progress lines.
	Out io.Writer
}

// SoakReport summarizes a soak run.
type SoakReport struct {
	Requests   int // chaos requests issued
	OK         int // byte-identical successes
	Degraded   int // structured-error responses (failed gracefully)
	FaultsHit  int // faults the injector actually fired
	Violations []string
	// Reference is the canonical response for the first app, for display.
	Reference *AnalyzeResponse
	// Scenario is the canonical scenario response when SoakConfig.Scenario
	// was set, for display of the per-tenant rows.
	Scenario *AnalyzeResponse
}

// soakTarget is one request shape the soak cycles over: a plain per-app
// analysis or the scenario request.
type soakTarget struct {
	label string
	req   AnalyzeRequest
}

// Soak runs the chaos soak. base supplies budgets and resilience settings;
// its CacheDir (a fresh temp dir when empty) hosts the chaos server's
// artifact cache. A nil error means every invariant held.
func Soak(ctx context.Context, base Config, sc SoakConfig) (*SoakReport, error) {
	if len(sc.Apps) == 0 {
		sc.Apps = []string{"wordpress", "tomcat"}
	}
	if sc.Workers <= 0 {
		sc.Workers = 4
	}
	if sc.RequestsPerWorker <= 0 {
		sc.RequestsPerWorker = 6
	}
	if sc.Instrs == 0 {
		sc.Instrs = 60_000
	}
	if sc.RequestTimeout <= 0 {
		sc.RequestTimeout = 30 * time.Second
	}
	if base.CacheDir == "" {
		dir, err := os.MkdirTemp("", "ispyd-soak-*")
		if err != nil {
			return nil, fmt.Errorf("soak: cache dir: %w", err)
		}
		defer os.RemoveAll(dir) // best-effort temp cleanup
		base.CacheDir = dir
	}
	rep := &SoakReport{}
	logf := func(format string, args ...any) {
		if sc.Out != nil {
			fmt.Fprintf(sc.Out, "soak: "+format+"\n", args...)
		}
	}

	// The request cycle: every app, plus the scenario when configured.
	targets := make([]soakTarget, 0, len(sc.Apps)+1)
	for _, app := range sc.Apps {
		targets = append(targets, soakTarget{label: app, req: AnalyzeRequest{App: app, Instrs: sc.Instrs}})
	}
	if sc.Scenario != "" {
		targets = append(targets, soakTarget{label: "scenario", req: AnalyzeRequest{Scenario: sc.Scenario, Instrs: sc.Instrs}})
	}
	labels := make([]string, len(targets))
	for i, t := range targets {
		labels[i] = t.label
	}

	// Phase 1: fault-free reference. No cache: the point is the canonical
	// bytes, and a pristine pipeline must not need one.
	logf("phase 1: pinning reference responses for %s", strings.Join(labels, ", "))
	refCfg := base
	refCfg.CacheDir = ""
	refCfg.Faults = nil
	reference := make(map[string][]byte, len(targets))
	err := withServer(ctx, refCfg, func(url string, _ *Server) error {
		for _, t := range targets {
			status, body, err := postAnalyze(ctx, url, t.req, sc.RequestTimeout)
			if err != nil {
				return fmt.Errorf("reference request for %s: %w", t.label, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("reference request for %s answered %d: %s", t.label, status, body)
			}
			reference[t.label] = body
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	var ref AnalyzeResponse
	if err := json.Unmarshal(reference[sc.Apps[0]], &ref); err != nil {
		return rep, fmt.Errorf("reference for %s is not an AnalyzeResponse: %w", sc.Apps[0], err)
	}
	rep.Reference = &ref
	if sc.Scenario != "" {
		var sref AnalyzeResponse
		if err := json.Unmarshal(reference["scenario"], &sref); err != nil {
			return rep, fmt.Errorf("scenario reference is not an AnalyzeResponse: %w", err)
		}
		rep.Scenario = &sref
	}

	// Phase 2: chaos. Concurrent workers against a fault-armed server; every
	// response must be the canonical bytes or a structured error.
	inj, err := faults.ParseSpec(sc.Seed, sc.FaultSpec)
	if err != nil {
		return rep, fmt.Errorf("soak: %w", err)
	}
	chaosCfg := base
	chaosCfg.Faults = inj
	logf("phase 2: %d workers × %d requests under spec %q", sc.Workers, sc.RequestsPerWorker, sc.FaultSpec)
	var mu sync.Mutex
	violation := func(format string, args ...any) {
		mu.Lock()
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	err = withServer(ctx, chaosCfg, func(url string, _ *Server) error {
		var wg sync.WaitGroup
		for w := 0; w < sc.Workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < sc.RequestsPerWorker; i++ {
					t := targets[(w*sc.RequestsPerWorker+i)%len(targets)]
					status, body, err := postAnalyze(ctx, url, t.req, sc.RequestTimeout)
					if err != nil {
						violation("worker %d: transport error (connection must survive chaos): %v", w, err)
						continue
					}
					mu.Lock()
					rep.Requests++
					mu.Unlock()
					switch {
					case status == http.StatusOK:
						if !bytes.Equal(body, reference[t.label]) {
							violation("worker %d: %s response diverged from reference under faults", w, t.label)
						} else {
							mu.Lock()
							rep.OK++
							mu.Unlock()
						}
					default:
						if _, ok := structuredError(body); !ok {
							violation("worker %d: status %d body is not a structured error: %.120s", w, status, body)
						} else {
							mu.Lock()
							rep.Degraded++
							mu.Unlock()
						}
					}
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return rep, err
	}
	rep.FaultsHit = inj.Fired("*")
	if sc.FaultSpec != "" && rep.FaultsHit == 0 {
		violation("fault spec %q never fired; the soak exercised nothing", sc.FaultSpec)
	}
	logf("phase 2: %d requests (%d canonical, %d graceful errors), %d faults fired",
		rep.Requests, rep.OK, rep.Degraded, rep.FaultsHit)

	// Phase 3: reopen the chaos server's cache fault-free. Torn or corrupt
	// entries must have been evicted, never served: every app must still
	// answer the canonical bytes.
	logf("phase 3: fault-free sweep over the surviving cache")
	cleanCfg := base
	cleanCfg.Faults = nil
	err = withServer(ctx, cleanCfg, func(url string, srv *Server) error {
		for _, t := range targets {
			status, body, err := postAnalyze(ctx, url, t.req, sc.RequestTimeout)
			if err != nil || status != http.StatusOK {
				violation("post-chaos sweep for %s failed (status %d, err %v)", t.label, status, err)
				continue
			}
			if !bytes.Equal(body, reference[t.label]) {
				violation("post-chaos cache serves non-canonical bytes for %s: partial write survived", t.label)
			}
		}
		// Drain under load: readiness must flip and in-flight requests
		// must complete with whole responses.
		return soakDrain(ctx, url, srv, sc, violation)
	})
	if err != nil {
		return rep, err
	}

	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("soak: %d invariant violation(s); first: %s", len(rep.Violations), rep.Violations[0])
	}
	logf("all invariants held")
	return rep, nil
}

// soakDrain checks graceful shutdown: requests in flight when the drain
// starts complete with complete, valid responses; once draining, readiness
// answers 503 and new analysis requests are shed with a structured error.
func soakDrain(ctx context.Context, url string, srv *Server, sc SoakConfig, violation func(string, ...any)) error {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		app := sc.Apps[i%len(sc.Apps)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := postAnalyze(ctx, url, AnalyzeRequest{App: app, Instrs: sc.Instrs}, sc.RequestTimeout)
			if err != nil {
				violation("drain: in-flight request cut off: %v", err)
				return
			}
			if status != http.StatusOK {
				if _, ok := structuredError(body); !ok {
					violation("drain: in-flight request got unstructured status %d", status)
				}
			}
		}()
	}
	srv.StartDrain()
	status, body, err := getPath(ctx, url, "/readyz")
	if err != nil || status != http.StatusServiceUnavailable {
		violation("drain: readyz answered %d (err %v), want 503", status, err)
	}
	status, body, err = postAnalyze(ctx, url, AnalyzeRequest{App: sc.Apps[0], Instrs: sc.Instrs}, sc.RequestTimeout)
	if err != nil || status != http.StatusServiceUnavailable {
		violation("drain: new request answered %d (err %v), want shed 503", status, err)
	} else if _, ok := structuredError(body); !ok {
		violation("drain: shed response is not a structured error: %.120s", body)
	}
	wg.Wait()
	return nil
}

// withServer runs body against a server of cfg listening on loopback,
// then shuts it down and reports any serve-side failure.
func withServer(ctx context.Context, cfg Config, body func(url string, srv *Server) error) error {
	srv, err := New(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("soak: listen: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx, l, 30*time.Second) }()
	url := "http://" + l.Addr().String()

	bodyErr := body(url, srv)
	cancel()
	if serveErr := <-served; serveErr != nil && bodyErr == nil {
		return fmt.Errorf("soak: server: %w", serveErr)
	}
	return bodyErr
}

// postAnalyze issues one analysis request and returns (status, body).
func postAnalyze(ctx context.Context, url string, ar AnalyzeRequest, timeout time.Duration) (int, []byte, error) {
	ar.TimeoutMillis = timeout.Milliseconds()
	reqBody, err := json.Marshal(ar)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/analyze", bytes.NewReader(reqBody))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(req)
}

// getPath issues one GET and returns (status, body).
func getPath(ctx context.Context, url, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(req)
}

// do executes req and reads the whole body, surfacing truncation: a torn
// response body is a transport error, never a silently short read.
func do(req *http.Request) (int, []byte, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() // read side; close cannot lose data
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("truncated response body: %w", err)
	}
	return resp.StatusCode, b, nil
}

// structuredError reports whether body parses as the service's error shape.
func structuredError(body []byte) (string, bool) {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" {
		return "", false
	}
	return eb.Error.Code + ": " + eb.Error.Message, true
}
