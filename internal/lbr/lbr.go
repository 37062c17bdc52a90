// Package lbr models Intel's Last Branch Record as I-SPY uses it: a 32-entry
// FIFO of the most recently executed basic-block start addresses, extended
// with the rolling counting-Bloom-filter runtime hash of §III-A (Fig. 7).
//
// Two consumers read the LBR:
//
//   - The profiler (PEBS analogue) snapshots the 32 entries — each with the
//     cycle at which the block was entered — whenever an L1 I-cache miss
//     retires, producing the miss-annotated dynamic CFG.
//   - Conditional prefetch execution tests its context-hash immediate
//     against the runtime hash maintained incrementally as entries rotate.
package lbr

import (
	"ispy/internal/bloom"
	"ispy/internal/isa"
)

// Depth is the number of LBR entries (x86-64: 32).
const Depth = 32

// Entry is one LBR record: the basic block that was entered and the cycle at
// which it was entered. Real LBRs record branch source/target plus cycle
// counts; the block start address is the target form the paper uses.
type Entry struct {
	// Block is the basic-block ID (simulator-internal; the address is what
	// hardware sees, the ID is kept for exact analysis).
	Block int32
	// Addr is the block's start address.
	Addr isa.Addr
	// Cycle is the core cycle at which the block was entered.
	Cycle uint64
	// Instrs is the retired-instruction count at block entry (monotonic);
	// entry-to-entry differences give instruction distances, the quantity
	// AsmDB's IPC-based window estimation uses (§IV).
	Instrs uint64
}

// LBR is the last-branch-record FIFO plus its runtime-hash filter.
type LBR struct {
	entries [Depth]Entry
	head    int // index of the oldest entry
	size    int
	filter  *bloom.Filter
}

// New returns an empty LBR whose runtime hash is hashBits wide.
func New(hashBits int) *LBR {
	return &LBR{filter: bloom.New(hashBits)}
}

// Push records entry of a basic block, evicting the oldest entry once the
// FIFO is full and keeping the Bloom counters in sync.
func (l *LBR) Push(block int32, addr isa.Addr, cycle, instrs uint64) {
	e := Entry{Block: block, Addr: addr, Cycle: cycle, Instrs: instrs}
	if l.size == Depth {
		old := &l.entries[l.head]
		l.filter.Remove(uint64(old.Addr))
		*old = e
		l.head = (l.head + 1) % Depth
	} else {
		l.entries[(l.head+l.size)%Depth] = e
		l.size++
	}
	l.filter.Add(uint64(addr))
}

// Len returns the number of valid entries (≤ Depth).
func (l *LBR) Len() int { return l.size }

// Snapshot appends the entries, oldest first, to dst and returns it.
func (l *LBR) Snapshot(dst []Entry) []Entry {
	for i := 0; i < l.size; i++ {
		dst = append(dst, l.entries[(l.head+i)%Depth])
	}
	return dst
}

// Blocks appends the entries' block IDs, newest first, to dst and returns
// it: the order At(0), At(1), … gives, copied as the ring's two contiguous
// runs rather than one modular index per entry.
func (l *LBR) Blocks(dst []int32) []int32 {
	end := l.head + l.size
	if end > Depth {
		for i := end - Depth - 1; i >= 0; i-- {
			dst = append(dst, l.entries[i].Block)
		}
		end = Depth
	}
	for i := end - 1; i >= l.head; i-- {
		dst = append(dst, l.entries[i].Block)
	}
	return dst
}

// At returns the i-th most recent entry (0 = newest). It panics if i ≥ Len.
func (l *LBR) At(i int) Entry {
	if i < 0 || i >= l.size {
		panic("lbr: index out of range")
	}
	return l.entries[(l.head+l.size-1-i)%Depth]
}

// RuntimeHash returns the Bloom-filter runtime hash of the current contents.
func (l *LBR) RuntimeHash() uint64 { return l.filter.RuntimeHash() }

// Match reports whether a conditional prefetch with the given context hash
// would fire (context-hash bits ⊆ runtime-hash bits).
func (l *LBR) Match(ctxHash uint64) bool { return l.filter.Subset(ctxHash) }

// ContainsBlock reports whether a block with the given address is actually
// resident (ground truth, used to measure the hash's false-positive rate in
// Fig. 21; hardware has no such oracle).
func (l *LBR) ContainsBlock(addr isa.Addr) bool {
	for i := 0; i < l.size; i++ {
		if l.entries[(l.head+i)%Depth].Addr == addr {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every address in addrs is resident.
func (l *LBR) ContainsAll(addrs []isa.Addr) bool {
	for _, a := range addrs {
		if !l.ContainsBlock(a) {
			return false
		}
	}
	return true
}

// Reset clears the FIFO and the filter.
func (l *LBR) Reset() {
	l.head, l.size = 0, 0
	l.filter.Reset()
}
