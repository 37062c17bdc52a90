// Cache keys: a content-addressed artifact is identified by a stable hash of
// every input that determines its value — the workload preset parameters,
// the simulator configuration, the analysis options, the workload input, and
// the artifact kind. Two runs that agree on all of them compute bit-identical
// artifacts (the whole pipeline is deterministic), so the key material *is*
// the content address.
//
// That last sentence is a proof obligation, not a convention:
// TestKeyMaterialCoversEveryField changes every leaf field of the
// key-covered structs (sim.Config, workload.Params, core.Options,
// workload.Input, traffic.Spec) one at a time and requires the material
// built here to change with it. A new field must be folded below, or be
// listed among the test's exemptions with its reason.
package artifacts

import (
	"encoding/binary"
	"fmt"
	"math"

	"ispy/internal/core"
	"ispy/internal/hashx"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// Key accumulates the material identifying one artifact. Fold methods return
// the receiver for chaining; the fold order is part of the identity, so
// callers must fold deterministically.
type Key struct {
	kind string
	app  string
	buf  []byte
}

// NewKey starts a key for one artifact kind of one application. Both strings
// become part of the key material.
func NewKey(kind, app string) *Key {
	k := &Key{kind: kind, app: app}
	return k.Str(kind).Str(app)
}

// Kind returns the artifact kind the key was created with.
func (k *Key) Kind() string { return k.kind }

// App returns the application name the key was created with.
func (k *Key) App() string { return k.app }

// Uint folds an unsigned integer.
func (k *Key) Uint(v uint64) *Key {
	k.buf = binary.AppendUvarint(k.buf, v)
	return k
}

// Int folds a signed integer.
func (k *Key) Int(v int64) *Key {
	k.buf = binary.AppendVarint(k.buf, v)
	return k
}

// Float folds a float by its IEEE-754 bits.
func (k *Key) Float(v float64) *Key { return k.Uint(math.Float64bits(v)) }

// Bool folds a boolean.
func (k *Key) Bool(v bool) *Key {
	if v {
		return k.Uint(1)
	}
	return k.Uint(0)
}

// Str folds a length-prefixed string.
func (k *Key) Str(s string) *Key {
	k.Uint(uint64(len(s)))
	k.buf = append(k.buf, s...)
	return k
}

// Params folds the workload generation parameters (every field: the program
// and its dynamic behavior are a pure function of them).
func (k *Key) Params(p workload.Params) *Key {
	k.Str(p.Name).Uint(p.Seed)
	k.Int(int64(p.NumTypes)).Float(p.TypeSkew).Bool(p.RoundRobin)
	k.Int(int64(p.HandlerFuncs)).Int(int64(p.HandlerBlocks)).Int(int64(p.BlockInstrs))
	k.Float(p.ColdFrac).Float(p.ColdTakenProb).Float(p.LoopFrac).Float(p.LoopBackProb)
	k.Int(int64(p.SharedHelpers)).Int(int64(p.SharedHelperBlocks)).Float(p.HelperCallFrac)
	k.Int(int64(p.RecvBlocks)).Int(int64(p.MiddleBlocks)).Int(int64(p.LogBlocks)).Int(int64(p.ParseBlocks))
	k.Int(int64(p.EngineSlots)).Float(p.EngineSlotProb).Int(int64(p.EngineBlocks)).Int(int64(p.FragmentBlocks))
	return k.Float(p.BackendCPI)
}

// SimConfig folds a simulator configuration, including the hierarchy and the
// (sorted) hardware-prefetcher mask.
func (k *Key) SimConfig(c sim.Config) *Key {
	for _, lv := range []struct {
		size, ways int
		lat        uint64
	}{
		{c.Hier.L1I.SizeBytes, c.Hier.L1I.Ways, c.Hier.L1I.Latency},
		{c.Hier.L1D.SizeBytes, c.Hier.L1D.Ways, c.Hier.L1D.Latency},
		{c.Hier.L2.SizeBytes, c.Hier.L2.Ways, c.Hier.L2.Latency},
		{c.Hier.L3.SizeBytes, c.Hier.L3.Ways, c.Hier.L3.Latency},
	} {
		k.Int(int64(lv.size)).Int(int64(lv.ways)).Uint(lv.lat)
	}
	k.Uint(c.Hier.MemLatency).Bool(c.Hier.PrefetchAtMRU)
	k.Int(int64(c.Width)).Float(c.BackendCPI).Float(c.StallScale).Float(c.PrefetchLineCost)
	k.Int(int64(c.HashBits)).Uint(c.MaxInstrs).Uint(c.WarmupInstrs).Bool(c.Ideal)
	k.Int(int64(c.HWPrefetchWindow))
	if c.HWPrefetchMask == nil {
		k.Uint(0)
	} else {
		// LineMask entries are already in ascending line order, so folding
		// them in index order is deterministic. A nil mask (unrestricted
		// window) and an empty mask (everything gated off) mean different
		// things; distinguish them in the key material.
		k.Uint(1).Uint(uint64(c.HWPrefetchMask.Len()))
		for i := 0; i < c.HWPrefetchMask.Len(); i++ {
			line, mask := c.HWPrefetchMask.Entry(i)
			k.Uint(uint64(line)).Uint(mask)
		}
	}
	return k
}

// Options folds the offline-analysis options (every field, booleans
// included: the ablations of Fig. 12 differ only in them).
func (k *Key) Options(o core.Options) *Key {
	k.Uint(o.MinDistCycles).Uint(o.MaxDistCycles)
	k.Int(int64(o.HashBits)).Int(int64(o.MaxPreds)).Int(int64(o.CandidatePool)).Int(int64(o.CoalesceBits))
	k.Bool(o.Conditional).Bool(o.Coalesce)
	k.Uint(o.MinMissCount).Float(o.MinSiteCoverage).Float(o.SiteCoverageTier)
	k.Float(o.FanoutThreshold).Float(o.FanoutEpsilon).Float(o.MinPrecisionGain).Float(o.MinRecall)
	k.Uint(o.CtxWindowSlackCycles)
	k.Bool(o.IPCDistance).Float(o.AvgCPI).Float(o.BloomDensity)
	return k
}

// Input folds a workload input (name, seed, and explicit type weights).
func (k *Key) Input(in workload.Input) *Key {
	k.Str(in.Name).Uint(in.Seed)
	k.Uint(uint64(len(in.TypeWeights)))
	for _, w := range in.TypeWeights {
		k.Float(w)
	}
	return k
}

// Hash returns the 64-bit content hash of the folded material.
func (k *Key) Hash() uint64 { return hashx.FNV1a64(k.buf) }

// Filename returns the cache-entry file name: human-readable kind and app
// prefixes plus the content hash.
func (k *Key) Filename() string {
	return fmt.Sprintf("%s-%s-%016x.art", sanitize(k.kind), sanitize(k.app), k.Hash())
}

// sanitize keeps filenames portable.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
