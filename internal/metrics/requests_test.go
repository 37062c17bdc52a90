package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestsNilSafe(t *testing.T) {
	var r *Requests
	start := r.Begin()
	r.End(start, 200, false)
	r.Degraded()
	r.Shed()
	if s := r.Snapshot(); s != (RequestSnapshot{}) {
		t.Errorf("nil Requests snapshot = %+v, want zero", s)
	}
}

func TestRequestsClassification(t *testing.T) {
	r := NewRequests()
	end := func(status int, timeout bool) { r.End(r.Begin(), status, timeout) }
	end(200, false)
	end(200, false)
	end(400, false)
	end(422, false)
	end(500, false)
	end(503, true) // timeout wins over the 5xx class
	r.Degraded()
	r.Shed()

	s := r.Snapshot()
	if s.Total != 6 || s.OK != 2 || s.ClientError != 2 || s.ServerError != 1 || s.Timeout != 1 {
		t.Errorf("classification snapshot = %+v", s)
	}
	if s.Retries != 0 || s.Degraded != 1 || s.Shed != 1 {
		t.Errorf("auxiliary counters = %+v", s)
	}
	if s.InFlight != 0 {
		t.Errorf("in-flight = %d after all requests ended", s.InFlight)
	}
}

func TestRequestsInFlightGauge(t *testing.T) {
	r := NewRequests()
	a := r.Begin()
	b := r.Begin()
	if got := r.Snapshot().InFlight; got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}
	r.End(a, 200, false)
	r.End(b, 200, false)
	if got := r.Snapshot().InFlight; got != 0 {
		t.Fatalf("in-flight = %d after ends, want 0", got)
	}
}

func TestRequestsConcurrent(t *testing.T) {
	r := NewRequests()
	const workers = 16
	const each = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				start := r.Begin()
				r.Degraded()
				r.End(start, 200, false)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Total != workers*each || s.OK != workers*each || s.Degraded != workers*each {
		t.Errorf("concurrent totals = %+v", s)
	}
	if s.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", s.InFlight)
	}
}

func TestRequestSnapshotJSONAndSummary(t *testing.T) {
	r := NewRequests()
	r.End(r.Begin(), 200, false)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// "retries" stays while the benchmark module reads it.
	for _, field := range []string{`"total"`, `"in_flight"`, `"ok"`, `"timeout"`, `"retries"`, `"degraded"`, `"shed"`, `"latency_millis"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("statusz JSON %s lacks %s", b, field)
		}
	}
	sum := r.Snapshot().Summary()
	if !strings.Contains(sum, "1 total") || !strings.Contains(sum, "1 ok") {
		t.Errorf("Summary = %q", sum)
	}
}

func TestRequestsLatencyAccumulates(t *testing.T) {
	r := NewRequests()
	start := r.Begin()
	time.Sleep(2 * time.Millisecond)
	r.End(start, 200, false)
	if ms := r.Snapshot().LatencyMillis; ms < 1 {
		t.Errorf("latency sum = %dms, want >= 1", ms)
	}
}
