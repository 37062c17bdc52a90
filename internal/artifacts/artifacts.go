// Package artifacts is the content-addressed, on-disk artifact cache of the
// experiment harness.
//
// The paper's own deployment model motivates it: profile-driven analysis is
// an offline pipeline (Fig. 9) whose intermediate products — baseline and
// ideal-cache runs, miss profiles, injected programs, evaluation runs — are
// pure functions of (workload parameters, simulator configuration, analysis
// options, input). Re-running the harness therefore recomputes bit-identical
// artifacts; this package persists them instead, keyed by a stable hash of
// all their inputs (see Key), so repeated `ispy` invocations amortize the
// simulation cost the way a production profile/analyze/deploy loop would.
//
// Entries are serialized through the internal/traceio varint encoders inside
// a small container: magic, format version, an echo of the full key material
// (collision guard), length-prefixed sections, and a trailing FNV-1a
// checksum. Every load failure — missing file, truncation, corruption, stale
// format version, key-echo mismatch, invalid payload — is reported as a
// cache miss so the caller falls back to recomputing; the cache can never
// make a run fail, only make it faster.
package artifacts

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"ispy/internal/core"
	"ispy/internal/faults"
	"ispy/internal/hashx"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

// Container constants.
const (
	entryMagic   = 0x49534143 // "ISAC"
	entryVersion = 1
	// maxSectionBytes guards section allocations against corrupt headers.
	maxSectionBytes = 1 << 30
)

// Cache is an on-disk artifact store rooted at one directory. A nil *Cache
// is valid and behaves as an always-miss, never-store cache, so callers can
// thread an optional cache without guarding call sites. All methods are safe
// for concurrent use (distinct keys map to distinct files; same-key races
// are benign last-writer-wins rewrites of identical content).
type Cache struct {
	dir   string
	evict func(kind string)          // eviction observer; set before use
	onIO  func(op string, err error) // I/O-outcome observer; set before use
	inj   *faults.Injector           // fault injector (testing); set before use
}

// OnEvict registers an observer called with the artifact kind whenever a
// verification failure evicts an entry from disk. Must be set before the
// cache is used concurrently.
func (c *Cache) OnEvict(f func(kind string)) {
	if c != nil {
		c.evict = f
	}
}

// SetFaults installs a fault injector behind the cache's file I/O (sites
// "artifacts.read" and "artifacts.write"). Testing only; must be set before
// the cache is used concurrently.
func (c *Cache) SetFaults(inj *faults.Injector) {
	if c != nil {
		c.inj = inj
	}
}

// OnIO registers an observer called with the outcome of every substantive
// cache read or write — op is "read" or "write", err is nil on success. A
// read of an absent entry is neither (the disk answered; there was just no
// entry) and is not reported. The analysis server feeds its artifact-layer
// circuit breaker from this hook. Must be set before the cache is used
// concurrently.
func (c *Cache) OnIO(f func(op string, err error)) {
	if c != nil {
		c.onIO = f
	}
}

// ioDone reports one I/O outcome to the observer, if any.
func (c *Cache) ioDone(op string, err error) {
	if c != nil && c.onIO != nil {
		c.onIO(op, err)
	}
}

// corrupt handles an entry that exists on disk but failed verification:
// the file is deleted (best effort — a second chance at a clean recompute-
// and-store instead of tripping over the same bad bytes every run), the
// eviction observer is notified, and the load degrades to a miss.
func (c *Cache) corrupt(k *Key) [][]byte {
	//ispy:errok best-effort eviction; a file we cannot delete just stays a miss
	os.Remove(filepath.Join(c.dir, k.Filename()))
	if c.evict != nil {
		c.evict(k.kind)
	}
	return nil
}

// Open creates (if needed) and opens the cache directory.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifacts: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifacts: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Enabled reports whether the cache is backed by a directory.
func (c *Cache) Enabled() bool { return c != nil }

// --- container encoding ---

// writeEntry persists sections under k, atomically (write temp + rename).
// Store errors are deliberately swallowed (after notifying the OnIO
// observer): a read-only or full cache directory degrades to
// recompute-every-time, it does not fail the run. The write is bounded by
// ctx: once the run context ends, the caller stops waiting — the background
// write still finishes or cleans up after itself, so an expired deadline can
// never leave a partial entry visible (the rename is what publishes it).
func (c *Cache) writeEntry(ctx context.Context, k *Key, sections [][]byte) {
	if c == nil {
		return
	}
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n]) //ispy:errok bytes.Buffer.Write cannot fail
	}
	put(entryMagic)
	put(entryVersion)
	put(uint64(len(k.buf)))
	buf.Write(k.buf) //ispy:errok bytes.Buffer.Write cannot fail
	put(uint64(len(sections)))
	for _, s := range sections {
		put(uint64(len(s)))
		buf.Write(s) //ispy:errok bytes.Buffer.Write cannot fail
	}
	put(hashx.FNV1a64(buf.Bytes()))

	payload, err := c.inj.WriteBytes("artifacts.write", buf.Bytes())
	if err != nil {
		c.ioDone("write", err)
		return // injected write error: store silently skipped, like ENOSPC
	}
	err = c.persist(ctx, k.Filename(), payload)
	if err != nil && ctx != nil && ctx.Err() != nil {
		// Abandoned, not failed: the caller's deadline ended before the
		// rename was observed. The detached goroutine usually still publishes
		// a complete entry, so there is no I/O verdict to report — a
		// client-chosen timeout must not look like a failing disk.
		return
	}
	c.ioDone("write", err)
}

// persist atomically writes data as dir/name via temp + rename. When ctx can
// end, the file operations run on their own goroutine and persist only waits
// for whichever comes first — completion or the deadline; the abandoned
// goroutine still renames (a complete, valid entry) or removes its temp file.
func (c *Cache) persist(ctx context.Context, name string, data []byte) error {
	do := func() error {
		tmp, err := os.CreateTemp(c.dir, name+".tmp*")
		if err != nil {
			return err
		}
		_, werr := tmp.Write(data)
		cerr := tmp.Close()
		if werr != nil || cerr != nil {
			os.Remove(tmp.Name()) //ispy:errok abandoning the temp file; the write already failed
			if werr != nil {
				return werr
			}
			return cerr
		}
		if err := os.Rename(tmp.Name(), filepath.Join(c.dir, name)); err != nil {
			os.Remove(tmp.Name()) //ispy:errok abandoning the temp file; the rename already failed
			return err
		}
		return nil
	}
	if ctx == nil || ctx.Done() == nil {
		return do()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("artifacts: write abandoned: %w", context.Cause(ctx))
	}
	done := make(chan error, 1)
	//ispy:detach deliberately abandoned on deadline: the buffered send never blocks, the write runs to completion, and the select's ctx arm is the whole point
	go func() { done <- do() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("artifacts: write abandoned: %w", context.Cause(ctx))
	}
}

// readFile loads path bounded by ctx the same way persist is: a hung disk
// cannot outlive the run context, only the wait is abandoned.
func readFile(ctx context.Context, path string) ([]byte, error) {
	if ctx == nil || ctx.Done() == nil {
		return os.ReadFile(path)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("artifacts: read abandoned: %w", context.Cause(ctx))
	}
	type result struct {
		data []byte
		err  error
	}
	done := make(chan result, 1)
	//ispy:detach deliberately abandoned on deadline: a hung disk read is walked away from; the buffered send lets the straggler finish and be collected
	go func() {
		data, err := os.ReadFile(path)
		done <- result{data, err}
	}()
	select {
	case r := <-done:
		return r.data, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("artifacts: read abandoned: %w", context.Cause(ctx))
	}
}

// readEntry loads and verifies the entry for k, returning its sections, or
// nil if the entry is absent, truncated, corrupt, stale, or from a colliding
// key. An entry that exists but fails verification is evicted from disk (see
// corrupt) so the next run stores a clean replacement instead of re-parsing
// the same bad bytes forever.
func (c *Cache) readEntry(ctx context.Context, k *Key) [][]byte {
	if c == nil {
		return nil
	}
	data, err := readFile(ctx, filepath.Join(c.dir, k.Filename()))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) && (ctx == nil || ctx.Err() == nil) {
			// A disk that answered wrongly is an artifact-layer failure; an
			// absent entry is just a miss, and an abandoned read (the
			// caller's deadline ended first) carries no verdict at all — the
			// disk may be perfectly healthy, the client just stopped waiting.
			c.ioDone("read", err)
		}
		return nil // absent (or unreadable) is a plain miss, not an eviction
	}
	data, err = c.inj.ReadBytes("artifacts.read", data)
	if err != nil {
		c.ioDone("read", err)
		return nil // injected read error: miss, but the entry may be fine
	}
	c.ioDone("read", nil)
	rest := data
	take := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	takeBytes := func(n uint64) ([]byte, bool) {
		if n > maxSectionBytes || n > uint64(len(rest)) {
			return nil, false
		}
		b := rest[:n]
		rest = rest[n:]
		return b, true
	}
	if m, ok := take(); !ok || m != entryMagic {
		return c.corrupt(k)
	}
	if v, ok := take(); !ok || v != entryVersion {
		return c.corrupt(k) // stale format version
	}
	klen, ok := take()
	if !ok {
		return c.corrupt(k)
	}
	kecho, ok := takeBytes(klen)
	if !ok || !bytes.Equal(kecho, k.buf) {
		return c.corrupt(k) // hash collision or stale key layout
	}
	nsec, ok := take()
	if !ok || nsec > 64 {
		return c.corrupt(k)
	}
	sections := make([][]byte, 0, nsec)
	for i := uint64(0); i < nsec; i++ {
		slen, ok := take()
		if !ok {
			return c.corrupt(k)
		}
		s, ok := takeBytes(slen)
		if !ok {
			return c.corrupt(k)
		}
		sections = append(sections, s)
	}
	payloadEnd := len(data) - len(rest)
	sum, ok := take()
	if !ok || len(rest) != 0 || sum != hashx.FNV1a64(data[:payloadEnd]) {
		return c.corrupt(k)
	}
	return sections
}

// --- typed entries ---
//
// Every typed load/store takes the run context: a cancelled or expired run
// stops waiting on cache I/O immediately (see persist/readFile), so a hung
// disk cannot outlive -timeout. Passing context.Background() preserves the
// old unbounded behavior.

// StoreStats persists one simulation run's statistics under k.
func (c *Cache) StoreStats(ctx context.Context, k *Key, s *sim.Stats) {
	if c == nil || s == nil {
		return
	}
	var buf bytes.Buffer
	if err := traceio.WriteStats(&buf, s); err != nil {
		return
	}
	c.writeEntry(ctx, k, [][]byte{buf.Bytes()})
}

// LoadStats returns the cached statistics for k, if valid.
func (c *Cache) LoadStats(ctx context.Context, k *Key) (*sim.Stats, bool) {
	sections := c.readEntry(ctx, k)
	if len(sections) != 1 {
		return nil, false
	}
	s, err := traceio.ReadStats(bytes.NewReader(sections[0]))
	if err != nil {
		return nil, false
	}
	return s, true
}

// StoreProfile persists a collected profile: the miss-annotated graph (via
// traceio's profile interchange format) plus the full statistics of the
// profiling run.
func (c *Cache) StoreProfile(ctx context.Context, k *Key, p *profile.Profile) {
	if c == nil || p == nil {
		return
	}
	var pbuf, sbuf bytes.Buffer
	if err := traceio.WriteProfile(&pbuf, traceio.ProfileDataOf(p)); err != nil {
		return
	}
	if err := traceio.WriteStats(&sbuf, p.Stats); err != nil {
		return
	}
	c.writeEntry(ctx, k, [][]byte{pbuf.Bytes(), sbuf.Bytes()})
}

// LoadProfile returns the cached profile for k rebound to the live workload
// w and input in. A stored profile naming a different workload or input
// (stale preset seed, collision) is treated as a miss.
func (c *Cache) LoadProfile(ctx context.Context, k *Key, w *workload.Workload, in workload.Input) (*profile.Profile, bool) {
	sections := c.readEntry(ctx, k)
	if len(sections) != 2 {
		return nil, false
	}
	pd, err := traceio.ReadProfile(bytes.NewReader(sections[0]))
	if err != nil {
		return nil, false
	}
	if pd.WorkloadName != w.Name || pd.WorkloadSeed != w.Params.Seed ||
		pd.InputName != in.Name || pd.InputSeed != in.Seed {
		return nil, false
	}
	st, err := traceio.ReadStats(bytes.NewReader(sections[1]))
	if err != nil {
		return nil, false
	}
	return &profile.Profile{
		Graph:          pd.Graph,
		Stats:          st,
		AvgHashDensity: pd.AvgHashDensity,
		Workload:       w,
		Input:          in,
	}, true
}

// ScenarioRun is one scenario run as the cache holds it: the statistics
// plus the per-tenant report rows. Rows are persisted — not recomputed —
// because they are attributed from simulator hook events, which do not fire
// on a cache hit; storing them keeps cold and warm replays byte-identical.
type ScenarioRun struct {
	St   *sim.Stats
	Rows []traceio.ScenarioRow
}

// StoreScenario persists a scenario run as a two-section entry.
func (c *Cache) StoreScenario(ctx context.Context, k *Key, r ScenarioRun) {
	if c == nil || r.St == nil {
		return
	}
	var sbuf, rbuf bytes.Buffer
	if err := traceio.WriteStats(&sbuf, r.St); err != nil {
		return
	}
	if err := traceio.WriteScenarioRows(&rbuf, r.Rows); err != nil {
		return
	}
	c.writeEntry(ctx, k, [][]byte{sbuf.Bytes(), rbuf.Bytes()})
}

// LoadScenario returns the cached scenario run for k, if valid.
func (c *Cache) LoadScenario(ctx context.Context, k *Key) (ScenarioRun, bool) {
	sections := c.readEntry(ctx, k)
	if len(sections) != 2 {
		return ScenarioRun{}, false
	}
	s, err := traceio.ReadStats(bytes.NewReader(sections[0]))
	if err != nil {
		return ScenarioRun{}, false
	}
	rows, err := traceio.ReadScenarioRows(bytes.NewReader(sections[1]))
	if err != nil {
		return ScenarioRun{}, false
	}
	return ScenarioRun{St: s, Rows: rows}, true
}

// StoreBuild persists an analysis build: the injected program, the plan's
// reporting counters, and the planned prefetch list (the injection plan the
// analysis server streams back; the batch harness only reads the counters).
// The analysis working state (per-target site choices and context evidence)
// is not stored — a cached build is for simulation and reporting, not for
// resuming the analysis.
func (c *Cache) StoreBuild(ctx context.Context, k *Key, b *core.Build) {
	if c == nil || b == nil {
		return
	}
	var pbuf, plan bytes.Buffer
	if err := traceio.WriteProgram(&pbuf, b.Prog); err != nil {
		return
	}
	if err := traceio.WritePlan(&plan, b.Plan); err != nil {
		return
	}
	c.writeEntry(ctx, k, [][]byte{pbuf.Bytes(), plan.Bytes()})
}

// LoadBuild returns the cached build for k, if valid. The returned Build
// carries the injected program, plan counters, and planned prefetches; Sites
// and Contexts are nil (see StoreBuild).
func (c *Cache) LoadBuild(ctx context.Context, k *Key) (*core.Build, bool) {
	sections := c.readEntry(ctx, k)
	if len(sections) != 2 {
		return nil, false
	}
	prog, err := traceio.ReadProgram(bytes.NewReader(sections[0]))
	if err != nil {
		return nil, false
	}
	plan, err := traceio.ReadPlan(bytes.NewReader(sections[1]))
	if err != nil {
		return nil, false
	}
	return &core.Build{Prog: prog, Plan: plan}, true
}
