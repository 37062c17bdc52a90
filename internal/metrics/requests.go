// Per-request telemetry for the analysis server: outcome-classed counters,
// an in-flight gauge, degradation and shedding accounting, and a latency
// sum. Like Telemetry, a Requests is shared by every handler goroutine, all
// methods are safe for concurrent use, and a nil *Requests is a valid no-op
// sink.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Requests accumulates the server's request-level counters.
type Requests struct {
	mu sync.Mutex

	inflight int64
	snap     RequestSnapshot
	latency  time.Duration
}

// RequestSnapshot is a point-in-time copy of the counters, shaped for the
// /statusz JSON body (stable field names; no maps, so encoding is
// deterministic).
type RequestSnapshot struct {
	// Total counts completed requests; InFlight is the live gauge.
	Total    uint64 `json:"total"`
	InFlight int64  `json:"in_flight"`
	// OK / ClientError / ServerError / Timeout classify completions.
	OK          uint64 `json:"ok"`
	ClientError uint64 `json:"client_error"`
	ServerError uint64 `json:"server_error"`
	Timeout     uint64 `json:"timeout"`
	// Retries is always 0: the server makes one attempt per request. It is
	// kept only because the benchmark module reads it from /statusz.
	// Degraded counts requests served with the artifact cache bypassed
	// (circuit open); Shed counts requests rejected because the breaker
	// refused even degraded service or the server was draining.
	Retries  uint64 `json:"retries"`
	Degraded uint64 `json:"degraded"`
	Shed     uint64 `json:"shed"`
	// LatencyMillis is the summed wall time of completed requests.
	LatencyMillis int64 `json:"latency_millis"`
}

// NewRequests returns an empty request-counter set.
func NewRequests() *Requests { return &Requests{} }

// Begin marks one request entering service and returns its start time.
func (r *Requests) Begin() time.Time {
	if r == nil {
		return time.Time{}
	}
	r.mu.Lock()
	r.inflight++
	r.mu.Unlock()
	return time.Now()
}

// End marks one request leaving service. status is the HTTP status sent;
// timeout flags deadline-exceeded failures (counted separately from other
// 5xx so chaos runs can tell overload from breakage).
func (r *Requests) End(start time.Time, status int, timeout bool) {
	if r == nil {
		return
	}
	var d time.Duration
	if !start.IsZero() {
		d = time.Since(start)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inflight--
	r.snap.Total++
	r.latency += d
	switch {
	case timeout:
		r.snap.Timeout++
	case status >= 500:
		r.snap.ServerError++
	case status >= 400:
		r.snap.ClientError++
	default:
		r.snap.OK++
	}
}

// Degraded counts one request served without the artifact cache.
func (r *Requests) Degraded() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snap.Degraded++
	r.mu.Unlock()
}

// Shed counts one request rejected outright (drain or open circuit).
func (r *Requests) Shed() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snap.Shed++
	r.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (r *Requests) Snapshot() RequestSnapshot {
	if r == nil {
		return RequestSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap
	s.InFlight = r.inflight
	s.LatencyMillis = r.latency.Milliseconds()
	return s
}

// Summary renders the counters as one log-friendly line.
func (s RequestSnapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests: %d total (%d ok, %d client-err, %d server-err, %d timeout), %d in flight",
		s.Total, s.OK, s.ClientError, s.ServerError, s.Timeout, s.InFlight)
	fmt.Fprintf(&b, "; %d degraded, %d shed", s.Degraded, s.Shed)
	return b.String()
}
