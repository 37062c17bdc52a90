// The structured run report: per-app, per-stage failure records and skip
// counts that let a multi-app evaluation degrade gracefully instead of
// aborting. Every contained failure — a panicking artifact computation, an
// injected fault, a cancelled queue — lands here; cmd/ispy prints the report
// at exit and derives the process exit code from it (0 only on a fully clean
// run).
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Failure is one contained failure: which app, in which stage of which
// experiment, what went wrong, and how long the attempt ran before dying.
type Failure struct {
	App      string // "" for run-level (appless) failures
	Stage    string // e.g. "warm/base", "fig10", "sweep/preds=1"
	Err      error
	Duration time.Duration
}

// Report accumulates one run's contained failures and skipped work. All
// methods are safe for concurrent use; a nil *Report is a valid no-op sink.
type Report struct {
	mu        sync.Mutex
	failures  []Failure
	skipped   int
	skipCause error
}

// NewReport returns an empty run report.
func NewReport() *Report { return &Report{} }

// Record adds one contained failure.
func (r *Report) Record(app, stage string, err error, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.failures = append(r.failures, Failure{App: app, Stage: stage, Err: err, Duration: d})
	r.mu.Unlock()
}

// Skip adds n tasks that were never started (cancellation, timeout).
func (r *Report) Skip(n int, cause error) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	r.skipped += n
	if r.skipCause == nil {
		r.skipCause = cause
	}
	r.mu.Unlock()
}

// Failures returns a copy of the recorded failures.
func (r *Report) Failures() []Failure {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Failure(nil), r.failures...)
}

// FailedApp returns the first recorded failure for app (nil if the app is
// healthy so far).
func (r *Report) FailedApp(app string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.failures {
		if f.App == app {
			return f.Err
		}
	}
	return nil
}

// Skipped returns how many queued tasks were abandoned before starting.
func (r *Report) Skipped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.skipped
}

// Clean reports whether the run saw no contained failures and no skipped
// work — the condition for exit code 0.
func (r *Report) Clean() bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failures) == 0 && r.skipped == 0
}

// Summary renders the report for the end of a run. Empty for a clean run.
func (r *Report) Summary() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) == 0 && r.skipped == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run report: %d failure(s), %d task(s) skipped\n", len(r.failures), r.skipped)
	for _, f := range r.failures {
		app := f.App
		if app == "" {
			app = "(run)"
		}
		fmt.Fprintf(&b, "  FAILED  %-12s %-20s %s", app, f.Stage, errLine(f.Err))
		if f.Duration > 0 {
			fmt.Fprintf(&b, " (after %.2fs)", f.Duration.Seconds())
		}
		b.WriteByte('\n')
	}
	if r.skipped > 0 {
		fmt.Fprintf(&b, "  SKIPPED %d queued task(s): %s\n", r.skipped, errLine(r.skipCause))
	}
	return b.String()
}

// errLine renders an error as a single bounded line (PanicError stacks and
// joined errors can span pages; tables and summaries want the headline).
func errLine(err error) string {
	if err == nil {
		return "canceled"
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const maxLen = 120
	if len(s) > maxLen {
		s = s[:maxLen] + "…"
	}
	return s
}
