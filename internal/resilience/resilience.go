// Package resilience holds the circuit breaker the analysis server wraps
// around artifact-cache I/O: a consecutive-failure breaker that sheds a
// persistently failing dependency instead of hammering it. Compute is never
// retried: the analysis pipeline is deterministic, so a second attempt on
// the same inputs would fail the same way (DESIGN.md §12).
//
// The breaker consults time (its cooldown is a wall-clock interval); the
// clock is injectable so tests stay deterministic.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState enumerates the circuit breaker's states.
type BreakerState int

const (
	// BreakerClosed: traffic flows, failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is shed until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe is in flight; its outcome decides.
	BreakerHalfOpen
)

// String names the state for status endpoints and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// ErrCircuitOpen is returned (or used as a degradation cause) when the
// breaker is shedding traffic.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// Breaker is a consecutive-failure circuit breaker: Threshold straight
// failures open it, a cooldown later one probe is admitted (half-open), and
// the probe's outcome either closes it or re-opens it for another cooldown.
// A nil *Breaker always allows and never trips, so callers can thread an
// optional breaker without guarding sites. All methods are safe for
// concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	trips    uint64
}

// NewBreaker returns a closed breaker that opens after threshold consecutive
// failures and admits a probe after cooldown. threshold ≤ 0 defaults to 5;
// cooldown ≤ 0 defaults to 1s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock replaces the breaker's clock (tests). Must be called before the
// breaker is used concurrently.
func (b *Breaker) SetClock(now func() time.Time) {
	if b != nil && now != nil {
		b.now = now
	}
}

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, then admits exactly one probe (half-open);
// further calls are shed until Record decides the probe's fate.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return false // a probe is already in flight
	default: // open
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		return true
	}
}

// Record feeds one call outcome. While closed, failures accumulate and the
// threshold-th consecutive one opens the breaker; a success resets the
// streak. In half-open, the probe's outcome closes (success) or re-opens
// (failure) the breaker.
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if ok {
			b.state = BreakerClosed
			b.failures = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		}
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		}
	default: // open: outcomes of calls admitted before the trip are moot
	}
}

// State returns the current state (Closed for a nil breaker).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		// Cooldown elapsed but no probe has arrived yet; report half-open so
		// status endpoints reflect that traffic would be admitted.
		return BreakerHalfOpen
	}
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
