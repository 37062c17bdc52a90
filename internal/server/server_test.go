package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ispy/internal/cfg"
	"ispy/internal/experiments"
	"ispy/internal/faults"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

// testConfig keeps budgets small enough for -race CI runs.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Lab:            quickLabFor(60_000),
		DefaultTimeout: 30 * time.Second,
	}
}

func quickLabFor(instrs uint64) (c experiments.Config) {
	c.MeasureInstrs = instrs
	c.WarmupInstrs = instrs / 3
	c.SweepInstrs = instrs / 2
	c.SweepWarmup = instrs / 4
	return c
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func analyze(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestHealthAndReadiness(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz = %d", w.Code)
	}
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz = %d before drain", w.Code)
	}
	s.StartDrain()
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz = %d while draining (liveness must hold)", w.Code)
	}
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d while draining, want 503", w.Code)
	}
	// Draining sheds new analysis work with a structured error.
	w := analyze(t, s, `{"app":"wordpress"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining = %d, want 503", w.Code)
	}
	if _, ok := structuredError(w.Body.Bytes()); !ok {
		t.Errorf("shed body is not a structured error: %s", w.Body)
	}
	if s.Requests().Snapshot().Shed != 1 {
		t.Errorf("shed counter = %+v", s.Requests().Snapshot())
	}
}

// TestAnalyzeDeterministicAndCached: on every preset, the cold body, the
// warm body served from the cache the cold request filled, and a restarted
// server's body over the same cache are byte-identical — the
// deterministic-response contract that makes chaos soaks checkable. At
// least one preset plans conditional and coalesced prefetches, so the warm
// summary read's counts are compared nonzero.
func TestAnalyzeDeterministicAndCached(t *testing.T) {
	cfg := testConfig(t)
	cfg.CacheDir = t.TempDir()
	s := newTestServer(t, cfg)

	cold := make(map[string][]byte, len(workload.AppNames))
	both := false
	for _, app := range workload.AppNames {
		body := `{"app":"` + app + `"}`
		w1 := analyze(t, s, body)
		if w1.Code != http.StatusOK {
			t.Fatalf("%s: analyze = %d: %s", app, w1.Code, w1.Body)
		}
		var resp AnalyzeResponse
		if err := json.Unmarshal(w1.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.App != app || resp.Baseline.Cycles == 0 || resp.ISPY.Cycles == 0 {
			t.Fatalf("%s: response = %+v", app, resp)
		}
		if resp.Plan.Prefetches == 0 || resp.Speedup <= 0 {
			t.Fatalf("%s: empty plan or speedup: %+v", app, resp)
		}
		both = both || resp.Plan.Conditional > 0 && resp.Plan.Coalesced > 0
		cold[app] = w1.Body.Bytes()

		if w2 := analyze(t, s, body); !bytes.Equal(w2.Body.Bytes(), cold[app]) {
			t.Errorf("%s: cache-warm response differs from the cold one:\n%s\nwant\n%s", app, w2.Body, cold[app])
		}
	}
	if !both {
		t.Error("no preset planned both conditional and coalesced prefetches")
	}

	// A fresh server over the same cache dir: still byte-identical.
	s2 := newTestServer(t, cfg)
	for _, app := range workload.AppNames {
		if w3 := analyze(t, s2, `{"app":"`+app+`"}`); !bytes.Equal(w3.Body.Bytes(), cold[app]) {
			t.Errorf("%s: response across server restarts differs:\n%s\nwant\n%s", app, w3.Body, cold[app])
		}
	}

	// A timeout too large for time.Duration in nanoseconds is clamped to
	// the server's maximum, not overflowed into an expired deadline.
	w4 := analyze(t, s2, `{"app":"wordpress","timeout_millis":10000000000000}`)
	if w4.Code != http.StatusOK || !bytes.Equal(w4.Body.Bytes(), cold["wordpress"]) {
		t.Fatalf("analyze with a huge timeout_millis = %d: %s", w4.Code, w4.Body)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	cases := []struct {
		body string
		want int
		code string
	}{
		{`not json`, http.StatusBadRequest, "bad_request"},
		{`{"app":""}`, http.StatusBadRequest, "bad_request"},
		{`{"app":"hhvm-prod"}`, http.StatusNotFound, "unknown_app"},
		{`{"app":"wordpress","instrs":5}`, http.StatusBadRequest, "bad_request"},
		{`{"app":"wordpress","bogus":1}`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		w := analyze(t, s, c.body)
		if w.Code != c.want {
			t.Errorf("analyze(%s) = %d, want %d (%s)", c.body, w.Code, c.want, w.Body)
			continue
		}
		msg, ok := structuredError(w.Body.Bytes())
		if !ok || !strings.HasPrefix(msg, c.code) {
			t.Errorf("analyze(%s) error body %q, want code %s", c.body, w.Body, c.code)
		}
	}
	snap := s.Requests().Snapshot()
	if snap.ClientError != uint64(len(cases)) {
		t.Errorf("client-error counter = %+v after %d bad requests", snap, len(cases))
	}
}

// TestAnalyzeScenario: a scenario request answers per-tenant and per-SLO
// rows, identical requests answer byte-identical bodies (cold, warm, and
// across a server restart over the same cache), and bad specs are
// structured 400s naming the offending tenant.
func TestAnalyzeScenario(t *testing.T) {
	cfg := testConfig(t)
	cfg.CacheDir = t.TempDir()
	s := newTestServer(t, cfg)

	body := `{"scenario":"name=svc;seed=9;requests=96;arrival=gamma:0.7;day=0.7,1.3;tenants=wordpress:slo=interactive,tomcat:slo=batch"}`
	w1 := analyze(t, s, body)
	if w1.Code != http.StatusOK {
		t.Fatalf("scenario analyze = %d: %s", w1.Code, w1.Body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(w1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scenario != "svc" || resp.App != "" {
		t.Fatalf("response identity = %+v", resp)
	}
	if len(resp.Tenants) != 2 || len(resp.SLOClasses) != 2 {
		t.Fatalf("rows: tenants %d, slo classes %d", len(resp.Tenants), len(resp.SLOClasses))
	}
	if resp.Tenants[0].Name != "wordpress" || resp.Tenants[0].SLO != "interactive" ||
		resp.Tenants[0].Requests == 0 || resp.Tenants[0].BaseMPKI <= 0 {
		t.Fatalf("tenant row = %+v", resp.Tenants[0])
	}
	if resp.SLOClasses[1].Name != "batch" || resp.SLOClasses[1].App != "" {
		t.Fatalf("slo row = %+v", resp.SLOClasses[1])
	}
	if resp.Baseline.L1IMisses <= resp.ISPY.L1IMisses {
		t.Fatalf("I-SPY did not reduce misses: %+v", resp)
	}

	// Warm, then across a restart over the same cache: byte-identical.
	if w2 := analyze(t, s, body); !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cache-warm scenario response differs from cold response")
	}
	s2 := newTestServer(t, cfg)
	if w3 := analyze(t, s2, body); !bytes.Equal(w1.Body.Bytes(), w3.Body.Bytes()) {
		t.Fatal("scenario response across server restarts differs")
	}
}

func TestAnalyzeScenarioValidation(t *testing.T) {
	s := newTestServer(t, testConfig(t))

	// An unknown tenant preset is a 400 naming the tenant, not a 500.
	w := analyze(t, s, `{"scenario":"tenants=wordpress,httpd"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown tenant app = %d: %s", w.Code, w.Body)
	}
	msg, ok := structuredError(w.Body.Bytes())
	if !ok || !strings.HasPrefix(msg, "bad_scenario") {
		t.Fatalf("error body = %s", w.Body)
	}
	if !strings.Contains(msg, "tenant 1") || !strings.Contains(msg, `"httpd"`) {
		t.Errorf("error does not name the offending tenant: %q", msg)
	}

	// App and scenario are mutually exclusive.
	w = analyze(t, s, `{"app":"wordpress","scenario":"tenants=tomcat"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("app+scenario = %d: %s", w.Code, w.Body)
	}

	// A malformed spec clause is a 400 too.
	w = analyze(t, s, `{"scenario":"arrival=bogus;tenants=tomcat"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed spec = %d: %s", w.Code, w.Body)
	}
}

func TestAnalyzeDeadline(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	w := analyze(t, s, `{"app":"wordpress","timeout_millis":1}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-doomed analyze = %d: %s", w.Code, w.Body)
	}
	msg, ok := structuredError(w.Body.Bytes())
	if !ok || !strings.HasPrefix(msg, "deadline_exceeded") {
		t.Fatalf("timeout body = %s", w.Body)
	}
	if snap := s.Requests().Snapshot(); snap.Timeout != 1 {
		t.Errorf("timeout counter = %+v", snap)
	}

	// A client-chosen deadline must not poison the circuit breaker: the
	// straggler's abandoned cache I/O carries no verdict, so the breaker
	// stays closed and later requests keep full caching. The follow-up
	// analyze doubles as a health check and gives the detached pipeline
	// time to finish before the breaker is inspected.
	if w := analyze(t, s, `{"app":"wordpress"}`); w.Code != http.StatusOK {
		t.Fatalf("analyze after timeout = %d: %s", w.Code, w.Body)
	}
	if trips := s.breaker.Trips(); trips != 0 {
		t.Errorf("breaker tripped %d time(s) from deadline abandonment alone", trips)
	}

	// A timed-out request leaves nothing behind. A 50 ms latency fault at
	// the first computation (the profile) makes the 1 ms deadline expire
	// before anything is stored. The abandoned pipeline must store no cache
	// entry, its goroutine in respond must exit, and it must start no
	// further computation: the I-SPY run, the pipeline's last, never starts.
	cfg := testConfig(t)
	cfg.CacheDir = t.TempDir()
	cfg.Faults = faults.New(1)
	cfg.Faults.Enable("compute/profile/wordpress", faults.Rule{Kind: faults.Latency, Delay: 50 * time.Millisecond})
	cfg.Faults.Enable("compute/ispy-run/wordpress", faults.Rule{Kind: faults.Latency, Delay: time.Millisecond})
	s = newTestServer(t, cfg)
	if w := analyze(t, s, `{"app":"wordpress","timeout_millis":1}`); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-doomed analyze with a cache = %d: %s", w.Code, w.Body)
	}
	waitNoGoroutinesIn(t, "server.(*Server).respond.func", 10*time.Second)
	entries, err := os.ReadDir(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("the timed-out request stored %s", e.Name())
	}
	if fired := cfg.Faults.Fired("compute/ispy-run/*"); fired != 0 {
		t.Errorf("the timed-out request went on to its I-SPY run (%d fault(s) fired there)", fired)
	}
}

// waitNoGoroutinesIn waits up to bound for every goroutine with a frame
// matching fn to exit, and fails with their stacks if any is left.
func waitNoGoroutinesIn(t *testing.T, fn string, bound time.Duration) {
	t.Helper()
	deadline := time.Now().Add(bound)
	buf := make([]byte, 1<<20)
	for {
		var left [][]byte
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte(fn)) {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) in %s still running after %v:\n%s", len(left), fn, bound, bytes.Join(left, []byte("\n\n")))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wordpressBody is the canonical response to {"app":"wordpress"} under
// testConfig.
const wordpressBody = `{"app":"wordpress","instrs":60000,` +
	`"baseline":{"instrs":60010,"cycles":244644,"l1i_misses":1143,"stall_cycles":206838,"prefetch_instrs":0,"prefetch_lines_issued":0},` +
	`"ispy":{"instrs":60010,"cycles":227756,"l1i_misses":799,"stall_cycles":189873,"prefetch_instrs":947,"prefetch_lines_issued":1914},` +
	`"plan":{"prefetches":317,"conditional":98,"coalesced":44,"misses_total":1143,"misses_planned":535,"misses_uncovered":608},` +
	`"speedup":1.0741495284427194}` + "\n"

// TestRespondContainsPanics: a panic in the detached analysis goroutine —
// the /v1/profile/analyze path runs outside any lab — answers a structured
// 500 and leaves the server up: the next request is served as usual.
func TestRespondContainsPanics(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	w := httptest.NewRecorder()
	status, timeout := s.respond(context.Background(), w, func(context.Context) (*AnalyzeResponse, error) {
		panic("injected analysis bug")
	})
	if status != http.StatusInternalServerError || timeout || w.Code != status {
		t.Fatalf("panicking run = status %d (written %d), timeout %v; want 500, no timeout", status, w.Code, timeout)
	}
	if msg, ok := structuredError(w.Body.Bytes()); !ok || msg != "internal: analysis panicked: injected analysis bug" {
		t.Fatalf("panic body = %s", w.Body)
	}
	after := analyze(t, s, `{"app":"wordpress"}`)
	if after.Code != http.StatusOK || after.Body.String() != wordpressBody {
		t.Fatalf("analyze after a contained panic = %d:\n%s\nwant 200:\n%s", after.Code, after.Body, wordpressBody)
	}
}

// TestRetryRecoversFromTransientFaults: the server makes one attempt per
// request, so the retry is the client's. A panic that fires once answers one
// structured 500, and the client's next request to the same server computes
// afresh and answers an undisturbed run's bytes.
func TestRetryRecoversFromTransientFaults(t *testing.T) {
	clean := newTestServer(t, testConfig(t))
	want := analyze(t, clean, `{"app":"tomcat"}`)
	if want.Code != http.StatusOK {
		t.Fatalf("clean analyze = %d", want.Code)
	}

	inj := faults.New(7)
	inj.Enable("compute/base/tomcat", faults.Rule{Kind: faults.Panic, Count: 1})
	cfg := testConfig(t)
	cfg.Faults = inj
	s := newTestServer(t, cfg)
	w := analyze(t, s, `{"app":"tomcat"}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("faulted analyze = %d: %s", w.Code, w.Body)
	}
	if msg, ok := structuredError(w.Body.Bytes()); !ok || !strings.HasPrefix(msg, "internal: ") {
		t.Fatalf("faulted body = %s", w.Body)
	}
	if fired := inj.Fired("compute/*"); fired != 1 {
		t.Fatalf("fault fired %d times, want 1 (one attempt)", fired)
	}
	got := analyze(t, s, `{"app":"tomcat"}`)
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("analyze after the fault = %d, want the clean server's bytes:\n%s", got.Code, got.Body)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if r := st.Requests; r.ServerError != 1 || r.OK != 1 || r.Retries != 0 {
		t.Errorf("statusz requests = %+v", r)
	}
}

// TestRetriesExhaustedIsStructured: a fault that never clears answers every
// attempt a client makes with a structured 500, never a 200 or a crash, and
// fires once per request because the server does not retry.
func TestRetriesExhaustedIsStructured(t *testing.T) {
	inj := faults.New(7)
	inj.Enable("compute/base/tomcat", faults.Rule{Kind: faults.Panic})
	cfg := testConfig(t)
	cfg.Faults = inj
	s := newTestServer(t, cfg)
	const attempts = 3
	for i := 0; i < attempts; i++ {
		w := analyze(t, s, `{"app":"tomcat"}`)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("attempt %d: faulted analyze = %d: %s", i, w.Code, w.Body)
		}
		if msg, ok := structuredError(w.Body.Bytes()); !ok || !strings.HasPrefix(msg, "internal: ") {
			t.Fatalf("attempt %d: faulted body = %s", i, w.Body)
		}
	}
	if fired := inj.Fired("compute/*"); fired != attempts {
		t.Errorf("fault fired %d times, want one per request (%d)", fired, attempts)
	}
	if snap := s.Requests().Snapshot(); snap.ServerError != attempts || snap.OK != 0 || snap.Retries != 0 {
		t.Errorf("request accounting = %+v", snap)
	}
}

// TestBreakerDegradesToCacheBypass: once the artifact layer fails enough
// consecutive times, the circuit opens and requests are served without the
// cache — same bytes, degraded counter ticking.
func TestBreakerDegradesToCacheBypass(t *testing.T) {
	clean := newTestServer(t, testConfig(t))
	want := analyze(t, clean, `{"app":"wordpress"}`)

	inj := faults.New(3)
	inj.Enable("artifacts.write", faults.Rule{Kind: faults.Error})
	inj.Enable("artifacts.read", faults.Rule{Kind: faults.Error})
	cfg := testConfig(t)
	cfg.CacheDir = t.TempDir()
	cfg.Faults = inj
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // stays open for the whole test
	s := newTestServer(t, cfg)

	// First request trips the breaker (every read and write errors).
	w1 := analyze(t, s, `{"app":"wordpress"}`)
	if w1.Code != http.StatusOK {
		t.Fatalf("tripping analyze = %d: %s", w1.Code, w1.Body)
	}
	if got := s.breaker.State().String(); got != "open" {
		t.Fatalf("breaker state = %s after sustained artifact failures", got)
	}
	// Second request must bypass the cache entirely and still serve the
	// canonical bytes.
	w2 := analyze(t, s, `{"app":"wordpress"}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("degraded analyze = %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w2.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("degraded response differs from canonical response")
	}
	snap := s.Requests().Snapshot()
	if snap.Degraded == 0 {
		t.Errorf("degraded counter = %+v", snap)
	}
	if fired := inj.Fired("artifacts.*"); fired == 0 {
		t.Error("artifact faults never fired")
	}
}

func TestStatusz(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	analyze(t, s, `{"app":"nope"}`)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("statusz = %d", w.Code)
	}
	var st Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.Total != 1 || st.Requests.ClientError != 1 {
		t.Errorf("statusz requests = %+v", st.Requests)
	}
	if st.Breaker != "closed" || st.Draining || st.Cache {
		t.Errorf("statusz = %+v", st)
	}
	if len(st.Apps) != len(workload.AppNames) {
		t.Errorf("statusz lists %d apps", len(st.Apps))
	}
}

// TestProfileUploadMatchesCollectedProfile: bytes produced the way
// `ispy-profile collect` writes them analyze end-to-end over HTTP.
func TestProfileUploadMatchesCollectedProfile(t *testing.T) {
	w := workload.Preset("verilator")
	in := workload.DefaultInput(w)
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs = 60_000
	scfg.WarmupInstrs = 20_000
	prof := profile.Collect(w, in, scfg)

	s := newTestServer(t, testConfig(t))
	post := func(pd *traceio.ProfileData, query ...string) *httptest.ResponseRecorder {
		var buf bytes.Buffer
		if err := traceio.WriteProfile(&buf, pd); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/profile/analyze?instrs=60000"+strings.Join(query, ""), &buf)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	pd := traceio.ProfileDataOf(prof)
	r1 := post(pd)
	if r1.Code != http.StatusOK {
		t.Fatalf("profile analyze = %d: %s", r1.Code, r1.Body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(r1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.App != "verilator" || resp.ISPY.Cycles == 0 || resp.Plan.Prefetches == 0 {
		t.Fatalf("profile response = %+v", resp)
	}
	// The second upload names a timeout too large for time.Duration in
	// nanoseconds, which the server clamps to its maximum.
	r2 := post(pd, "&timeout_millis=10000000000000")
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatalf("identical profile uploads produced different bytes: %d %s", r2.Code, r2.Body)
	}

	// A moved preset seed, an unknown preset, a history naming a block
	// outside the graph and a graph over another block count are the
	// client's errors.
	stale, unknown, outOfRange, resized := *pd, *pd, *pd, *pd
	stale.WorkloadSeed++
	unknown.WorkloadName = "bogus"
	var buf bytes.Buffer
	if err := traceio.WriteProfile(&buf, pd); err != nil {
		t.Fatal(err)
	}
	copied, err := traceio.ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range copied.Graph.Sites {
		for _, smp := range site.Samples {
			for i := range smp.Preds {
				smp.Preds[i].Block = 1 << 20
			}
		}
	}
	outOfRange.Graph = copied.Graph
	resized.Graph = cfg.NewGraph(pd.Graph.NumBlocks + 1)
	for _, c := range []struct {
		name   string
		pd     *traceio.ProfileData
		status int
		code   string
	}{
		{"moved seed", &stale, http.StatusUnprocessableEntity, "stale_profile"},
		{"unknown preset", &unknown, http.StatusNotFound, "unknown_app"},
		{"out-of-range block", &outOfRange, http.StatusBadRequest, "bad_profile"},
		{"resized graph", &resized, http.StatusUnprocessableEntity, "stale_profile"},
	} {
		rec := post(c.pd)
		if msg, ok := structuredError(rec.Body.Bytes()); rec.Code != c.status || !ok || !strings.HasPrefix(msg, c.code) {
			t.Errorf("profile with a %s = %d %s, want %d %s", c.name, rec.Code, rec.Body, c.status, c.code)
		}
	}
	if r3 := post(pd); r3.Code != http.StatusOK || !bytes.Equal(r1.Body.Bytes(), r3.Body.Bytes()) {
		t.Fatalf("valid upload after the bad ones = %d: %s", r3.Code, r3.Body)
	}

	// Garbage bytes are a structured 400, not a panic.
	req := httptest.NewRequest(http.MethodPost, "/v1/profile/analyze", strings.NewReader("garbage"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage profile = %d", rec.Code)
	}
	if msg, ok := structuredError(rec.Body.Bytes()); !ok || !strings.HasPrefix(msg, "bad_profile") {
		t.Fatalf("garbage profile body = %s", rec.Body)
	}
}

// TestConcurrentMixedRequestsShareOnePool: distinct apps analyzed
// concurrently against one server must each match their sequential bytes —
// cross-request isolation despite the shared cache and telemetry.
func TestConcurrentMixedRequestsShareOnePool(t *testing.T) {
	cfg := testConfig(t)
	cfg.CacheDir = t.TempDir()
	s := newTestServer(t, cfg)
	apps := []string{"wordpress", "tomcat", "verilator"}
	want := make(map[string][]byte, len(apps))
	for _, app := range apps {
		w := analyze(t, s, fmt.Sprintf(`{"app":%q}`, app))
		if w.Code != http.StatusOK {
			t.Fatalf("seed analyze %s = %d", app, w.Code)
		}
		want[app] = w.Body.Bytes()
	}
	const rounds = 3
	type result struct {
		app  string
		body []byte
		code int
	}
	ch := make(chan result, rounds*len(apps))
	for r := 0; r < rounds; r++ {
		for _, app := range apps {
			app := app
			go func() {
				w := analyze(t, s, fmt.Sprintf(`{"app":%q}`, app))
				ch <- result{app, w.Body.Bytes(), w.Code}
			}()
		}
	}
	for i := 0; i < rounds*len(apps); i++ {
		res := <-ch
		if res.code != http.StatusOK {
			t.Fatalf("concurrent analyze %s = %d", res.app, res.code)
		}
		if !bytes.Equal(res.body, want[res.app]) {
			t.Fatalf("concurrent response for %s diverged", res.app)
		}
	}
}
