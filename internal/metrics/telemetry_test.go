package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTelemetryCounters(t *testing.T) {
	tel := NewTelemetry(nil)
	tel.CacheHit("base")
	tel.CacheHit("base")
	tel.CacheMiss("profile")
	tel.CacheBypass("prepared")
	tel.ObserveArtifact("profile", 3*time.Millisecond)
	if tel.Hits() != 2 || tel.Misses() != 1 || tel.Bypasses() != 1 {
		t.Errorf("counters = %d/%d/%d, want 2/1/1", tel.Hits(), tel.Misses(), tel.Bypasses())
	}
	s := tel.Summary()
	for _, want := range []string{"base", "profile", "prepared", "total"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}

	// The rows come out sorted by kind, total last, whatever order the
	// kinds were first seen in. Ten kinds recorded in reverse order leave
	// map iteration no real chance of producing sorted rows by luck.
	var want []string
	for c := 'a'; c <= 'j'; c++ {
		want = append(want, "kind-"+string(c))
	}
	tel = NewTelemetry(nil)
	for i := len(want) - 1; i >= 0; i-- {
		tel.CacheMiss(want[i])
	}
	want = append(want, "total")
	var rows []string
	for _, line := range strings.Split(tel.Summary(), "\n")[3:] {
		if f := strings.Fields(line); len(f) > 0 {
			rows = append(rows, f[0])
		}
	}
	if strings.Join(rows, " ") != strings.Join(want, " ") {
		t.Errorf("summary rows = %v, want %v", rows, want)
	}
}

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.CacheHit("x")
	tel.CacheMiss("x")
	tel.CacheBypass("x")
	tel.ObserveArtifact("x", time.Second)
	tel.Progressf("ignored %d", 1)
	if tel.Hits() != 0 || tel.Summary() != "" {
		t.Error("nil telemetry must be a no-op sink")
	}
}

func TestTelemetryProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	tel := NewTelemetry(&buf)
	tel.Progressf("computed %s in %dms", "base", 12)
	if !strings.Contains(buf.String(), "computed base in 12ms") {
		t.Errorf("progress line missing: %q", buf.String())
	}
	silent := NewTelemetry(nil)
	silent.Progressf("never printed")
}

// TestTelemetryConcurrent exercises every counter from many goroutines; run
// under -race this is the data-race regression test for the shared sink.
func TestTelemetryConcurrent(t *testing.T) {
	tel := NewTelemetry(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tel.CacheHit("a")
				tel.CacheMiss("b")
				tel.CacheBypass("c")
				tel.ObserveArtifact("a", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if tel.Hits() != 1600 || tel.Misses() != 1600 || tel.Bypasses() != 1600 {
		t.Errorf("lost updates: %d/%d/%d", tel.Hits(), tel.Misses(), tel.Bypasses())
	}
}
