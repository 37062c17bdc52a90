// Package bloom implements the counting Bloom filter that backs I-SPY's
// runtime hash (§III-A, Fig. 7).
//
// The hardware keeps one small counter per bit of the n-bit runtime hash
// (the paper's default: 16 bits × 6-bit counters = 96 bits of state). When a
// basic block enters the 32-entry LBR, the counter selected by the block's
// hash (FNV-1 composed with MurmurHash3, one bit per block as in the
// paper's Fig. 6/7 example) is incremented; when the block rotates out, it
// is decremented. Reducing each counter to an "is-zero" bit yields the
// runtime hash; a conditional prefetch fires iff the set bits of its
// context-hash immediate are a subset of the runtime hash's set bits.
//
// Because at most 32 blocks are resident and each block touches one counter
// once, counters never exceed 32 and therefore never saturate a 6-bit field
// — the filter tracks LBR contents exactly (no deletion error), though the
// *hash* itself can alias distinct blocks (false positives).
package bloom

import (
	"fmt"

	"ispy/internal/hashx"
)

// CounterBits is the width of each counter (Fig. 7: 6 bits).
const CounterBits = 6

// CounterMax is the largest value a counter may hold.
const CounterMax = 1<<CounterBits - 1

// Filter is a counting Bloom filter over basic-block addresses.
type Filter struct {
	nbits    int
	counters []uint8
	setBits  uint64 // cached OR of is-nonzero bits
}

// New returns a filter with nbits hash bits. nbits must be a power of two in
// [2, 64] (the context hash must fit a 64-bit immediate).
func New(nbits int) *Filter {
	if !hashx.IsPow2(nbits) || nbits < 2 || nbits > 64 {
		panic(fmt.Sprintf("bloom: invalid hash width %d (want power of two in [2,64])", nbits))
	}
	return &Filter{nbits: nbits, counters: make([]uint8, nbits)}
}

// Bits returns the filter's hash width in bits.
func (f *Filter) Bits() int { return f.nbits }

// Add records one occurrence of the block at addr.
func (f *Filter) Add(addr uint64) {
	i := hashx.BlockBitIndex(addr, f.nbits)
	if f.counters[i] >= CounterMax {
		// Unreachable with a 32-entry LBR; guard against misuse.
		panic("bloom: counter overflow")
	}
	f.counters[i]++
	f.setBits |= 1 << i
}

// Remove erases one occurrence of the block at addr. Removing an address
// that was never added corrupts the filter; the caller (the LBR FIFO) must
// pair Add/Remove exactly.
func (f *Filter) Remove(addr uint64) {
	i := hashx.BlockBitIndex(addr, f.nbits)
	if f.counters[i] == 0 {
		panic("bloom: counter underflow (Remove without matching Add)")
	}
	f.counters[i]--
	if f.counters[i] == 0 {
		f.setBits &^= 1 << i
	}
}

// RuntimeHash returns the current runtime hash: bit i is set iff counter i is
// non-zero.
func (f *Filter) RuntimeHash() uint64 { return f.setBits }

// Subset reports whether every set bit of ctxHash is also set in the runtime
// hash — the firing condition of Cprefetch/CLprefetch.
func (f *Filter) Subset(ctxHash uint64) bool { return ctxHash&^f.setBits == 0 }

// Counter returns the value of counter i (for tests and diagnostics).
func (f *Filter) Counter(i int) int { return int(f.counters[i]) }

// Reset clears all counters.
func (f *Filter) Reset() {
	for i := range f.counters {
		f.counters[i] = 0
	}
	f.setBits = 0
}
