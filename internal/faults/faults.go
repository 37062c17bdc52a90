// Package faults is a seeded, deterministic fault injector for the harness's
// I/O and compute paths. Production code tags interesting operations with a
// site name ("artifacts.read", "compute/base/wordpress", …) and asks the
// injector whether the operation should fail; a nil injector never fires, so
// the tags cost one nil check in normal runs.
//
// Determinism: whether the N-th hit of a site fires is a pure function of
// (seed, site, N), never of wall-clock time or global RNG state, so a failing
// fault-injection test replays exactly under the same seed — the property
// that makes torn-write and panic-containment tests debuggable.
//
// The injector is the test side of the harness's failure model (DESIGN.md
// "Failure model"): tests use it to prove the artifact cache recomputes
// through every injected fault and the pool/report machinery contains every
// injected panic.
package faults

import (
	"fmt"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"ispy/internal/hashx"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Error fails the operation with an InjectedError.
	Error Kind = iota
	// ShortWrite persists only a prefix of the data (a torn write): the
	// caller sees success, the bytes on disk are truncated.
	ShortWrite
	// Corrupt flips a byte of the data in flight on a read.
	Corrupt
	// Latency delays the operation by the rule's Delay.
	Latency
	// Panic panics at the site with an *InjectedError value.
	Panic
)

// String names the kind the way ParseSpec spells it.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case ShortWrite:
		return "short"
	case Corrupt:
		return "corrupt"
	case Latency:
		return "latency"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// defaultDelay is the Latency-rule delay when none is configured.
const defaultDelay = 2 * time.Millisecond

// Rule describes when and how a site fails.
type Rule struct {
	Kind Kind
	// Prob is the per-hit firing probability; values outside (0,1) mean
	// "always fire".
	Prob float64
	// Delay is the injected latency for Latency rules (defaultDelay if 0).
	Delay time.Duration
	// Count caps the number of fires (0 = unlimited).
	Count int
}

// rule is an enabled rule bound to its site pattern.
type rule struct {
	pattern string
	Rule
	fired int
}

// Event records one fired fault.
type Event struct {
	Site string
	Kind Kind
}

// InjectedError is the error (and panic value) every fired fault carries.
type InjectedError struct {
	Site string
	Kind Kind
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s at %s", e.Kind, e.Site)
}

// Injector decides deterministically whether tagged operations fail. The
// zero-value rules apply to nothing; a nil *Injector is a valid no-op.
// All methods are safe for concurrent use.
type Injector struct {
	seed uint64

	mu     sync.Mutex
	rules  []*rule
	hits   map[string]uint64 // per-site hit counter (fired or not)
	events []Event
}

// New returns an injector with no rules enabled.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, hits: make(map[string]uint64)}
}

// Enable arms a rule for every site matching pattern. A pattern is an exact
// site name, a prefix ending in "*" ("compute/*"), or a path.Match glob
// ("compute/*/wordpress"). The first matching rule (in Enable order) decides.
func (in *Injector) Enable(pattern string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &rule{pattern: pattern, Rule: r})
}

// match reports whether pattern covers site.
func match(pattern, site string) bool {
	if pattern == site {
		return true
	}
	if strings.HasSuffix(pattern, "*") && !strings.Contains(strings.TrimSuffix(pattern, "*"), "*") {
		return strings.HasPrefix(site, strings.TrimSuffix(pattern, "*"))
	}
	ok, err := path.Match(pattern, site)
	return err == nil && ok
}

// fire consults the rules for one hit of site, returning the rule to apply.
// It owns all bookkeeping: hit counters, fire caps, and the event log.
func (in *Injector) fire(site string) (Rule, bool) {
	if in == nil {
		return Rule{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.hits[site]
	in.hits[site] = n + 1
	for _, r := range in.rules {
		if !match(r.pattern, site) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			return Rule{}, false
		}
		if p := r.Prob; p > 0 && p < 1 && hashx.Uniform(in.seed, site, n) >= p {
			return Rule{}, false
		}
		r.fired++
		in.events = append(in.events, Event{Site: site, Kind: r.Kind})
		return r.Rule, true
	}
	return Rule{}, false
}

// Hit evaluates one hit of a compute-style site: Error (and ShortWrite/
// Corrupt, which have no meaning outside I/O) return an *InjectedError,
// Latency sleeps, Panic panics. A nil injector returns nil.
func (in *Injector) Hit(site string) error {
	r, ok := in.fire(site)
	if !ok {
		return nil
	}
	switch r.Kind {
	case Latency:
		time.Sleep(r.delay())
		return nil
	case Panic:
		panic(&InjectedError{Site: site, Kind: Panic})
	default:
		return &InjectedError{Site: site, Kind: r.Kind}
	}
}

// ReadBytes evaluates one read of site over an in-memory payload: Error
// fails the read, Corrupt returns a copy with one byte flipped, Latency
// sleeps, Panic panics. The input is returned unchanged when nothing fires.
func (in *Injector) ReadBytes(site string, b []byte) ([]byte, error) {
	r, ok := in.fire(site)
	if !ok {
		return b, nil
	}
	switch r.Kind {
	case Corrupt:
		if len(b) == 0 {
			return b, nil
		}
		mut := append([]byte(nil), b...)
		mut[len(mut)/2] ^= 0x40
		return mut, nil
	case Latency:
		time.Sleep(r.delay())
		return b, nil
	case Panic:
		panic(&InjectedError{Site: site, Kind: Panic})
	default:
		return nil, &InjectedError{Site: site, Kind: r.Kind}
	}
}

// WriteBytes evaluates one write of site: Error fails the write outright,
// ShortWrite tears it (only a prefix is returned for persisting), Latency
// sleeps, Panic panics.
func (in *Injector) WriteBytes(site string, b []byte) ([]byte, error) {
	r, ok := in.fire(site)
	if !ok {
		return b, nil
	}
	switch r.Kind {
	case ShortWrite:
		return b[:len(b)/2], nil
	case Latency:
		time.Sleep(r.delay())
		return b, nil
	case Panic:
		panic(&InjectedError{Site: site, Kind: Panic})
	default:
		return nil, &InjectedError{Site: site, Kind: r.Kind}
	}
}

func (r Rule) delay() time.Duration {
	if r.Delay > 0 {
		return r.Delay
	}
	return defaultDelay
}

// Events returns a copy of the fired-fault log.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Fired returns how many faults have fired at sites matching pattern.
func (in *Injector) Fired(pattern string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, e := range in.events {
		if match(pattern, e.Site) {
			n++
		}
	}
	return n
}

// ParseSpec builds an injector from a CLI spec: comma-separated
// "pattern=kind[:prob]" clauses, where kind is error|short|corrupt|latency|
// panic and prob (default 1) is the per-hit firing probability. Example:
//
//	artifacts.write=short:0.5,compute/*/wordpress=panic
//
// Each pattern may appear at most once: rule matching is first-match-wins,
// so a second clause for the same pattern could never fire, and silently
// ignoring it would make the spec lie about the chaos being injected.
// Duplicates are an error naming the offending clause.
func ParseSpec(seed uint64, spec string) (*Injector, error) {
	in := New(seed)
	seen := make(map[string]string) // pattern → first clause using it
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		pattern, rhs, ok := strings.Cut(clause, "=")
		if !ok || pattern == "" || rhs == "" {
			return nil, fmt.Errorf("faults: clause %q is not pattern=kind[:prob]", clause)
		}
		if first, dup := seen[pattern]; dup {
			return nil, fmt.Errorf("faults: duplicate clause %q for pattern %q (already specified as %q; only the first would ever fire)",
				clause, pattern, first)
		}
		seen[pattern] = clause
		kindName, probStr, hasProb := strings.Cut(rhs, ":")
		var kind Kind
		switch kindName {
		case "error":
			kind = Error
		case "short":
			kind = ShortWrite
		case "corrupt":
			kind = Corrupt
		case "latency":
			kind = Latency
		case "panic":
			kind = Panic
		default:
			return nil, fmt.Errorf("faults: unknown kind %q (want error|short|corrupt|latency|panic)", kindName)
		}
		r := Rule{Kind: kind}
		if hasProb {
			p, err := strconv.ParseFloat(probStr, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("faults: bad probability %q in %q", probStr, clause)
			}
			r.Prob = p
		}
		in.Enable(pattern, r)
	}
	return in, nil
}
