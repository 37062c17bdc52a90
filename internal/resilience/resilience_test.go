package resilience

import (
	"fmt"
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.SetClock(func() time.Time { return clock })

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied call %d", i)
		}
		b.Record(false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Record(false) // third consecutive failure trips it
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	clock = clock.Add(time.Second) // cooldown elapses
	if !b.Allow() {
		t.Fatal("breaker denied the half-open probe")
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	b.Record(false) // probe fails: re-open
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	clock = clock.Add(time.Second)
	if !b.Allow() {
		t.Fatal("breaker denied the second probe")
	}
	b.Record(true) // probe succeeds: close
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker denied traffic")
	}
	if b.Trips() != 2 {
		t.Errorf("Trips = %d, want 2", b.Trips())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(3, time.Second)
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (success must reset the streak)", got)
	}
}

func TestNilBreakerAndZeroPolicy(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker denied a call")
	}
	b.Record(false) // must not panic
	if b.State() != BreakerClosed || b.Trips() != 0 {
		t.Error("nil breaker reported non-zero state")
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if got := fmt.Sprint(s); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}
