// Package isa models the instruction set and static program representation
// used throughout the I-SPY reproduction.
//
// The paper (MICRO 2020, §III) introduces a family of "code prefetch"
// instructions layered on top of a conventional x86-like ISA:
//
//   - Prefetch:    an AsmDB-style unconditional single-line code prefetch.
//     Modeled after x86 prefetcht*, 7 bytes.
//   - Cprefetch:   a conditional prefetch carrying an n-bit context hash of
//     the miss-inducing predecessor basic blocks. With the paper's default
//     16-bit hash it occupies 9 bytes.
//   - Lprefetch:   a coalesced prefetch carrying an n-bit coalescing
//     bit-vector that selects non-contiguous lines in the window following
//     the base target. With the 8-bit default it occupies 8 bytes.
//   - CLprefetch:  conditional + coalesced, 10 bytes with the defaults.
//
// Programs are collections of functions, which are ordered lists of basic
// blocks. Basic blocks hold concrete instruction lists so that the offline
// analysis can inject prefetch instructions and the timing simulator can
// charge fetch costs for the exact bytes a block occupies. Layout (address
// assignment) is recomputed after injection, so code bloat from injected
// prefetches shifts the rest of the text segment exactly as a link-time
// injection would.
package isa

import "fmt"

// Addr is a byte address in the simulated 64-bit address space.
type Addr uint64

// LineSize is the cache line size in bytes (Table I: 64-byte lines).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LineOf returns the address of the cache line containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// LineIndex returns the line number (address / LineSize) of a.
func LineIndex(a Addr) uint64 { return uint64(a) >> LineShift }

// TextBase is where the simulated text segment starts. The value mirrors the
// traditional ELF load address; nothing depends on it beyond determinism.
const TextBase Addr = 0x400000

// Kind enumerates instruction kinds.
type Kind uint8

// Instruction kinds. The non-prefetch kinds are deliberately coarse: the
// timing model only distinguishes instructions by byte size (fetch footprint)
// and by control-flow role. Prefetch kinds carry full operand semantics.
const (
	// KindALU is any ordinary computational instruction.
	KindALU Kind = iota
	// KindLoad is a data load.
	KindLoad
	// KindStore is a data store.
	KindStore
	// KindNop is a no-op (used for alignment padding).
	KindNop
	// KindBranch is a conditional branch terminating a basic block.
	KindBranch
	// KindJump is an unconditional direct jump terminating a basic block.
	KindJump
	// KindCall is a direct call terminating a basic block.
	KindCall
	// KindRet is a function return terminating a basic block.
	KindRet
	// KindPrefetch is the plain AsmDB-style single-line code prefetch.
	KindPrefetch
	// KindCprefetch is I-SPY's conditional prefetch (§III-A).
	KindCprefetch
	// KindLprefetch is I-SPY's coalesced prefetch (§III-B).
	KindLprefetch
	// KindCLprefetch combines conditional and coalesced prefetching.
	KindCLprefetch

	numKinds
)

var kindNames = [numKinds]string{
	"alu", "load", "store", "nop", "branch", "jump", "call", "ret",
	"prefetch", "cprefetch", "lprefetch", "clprefetch",
}

// String returns the lower-case mnemonic of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsPrefetch reports whether the kind is one of the four code prefetch
// instructions.
func (k Kind) IsPrefetch() bool {
	return k == KindPrefetch || k == KindCprefetch || k == KindLprefetch || k == KindCLprefetch
}

// IsConditional reports whether the kind carries a context hash and is
// executed only when the hash matches the LBR runtime hash.
func (k Kind) IsConditional() bool { return k == KindCprefetch || k == KindCLprefetch }

// IsCoalesced reports whether the kind carries a coalescing bit-vector.
func (k Kind) IsCoalesced() bool { return k == KindLprefetch || k == KindCLprefetch }

// IsTerminator reports whether the kind ends a basic block.
func (k Kind) IsTerminator() bool {
	return k == KindBranch || k == KindJump || k == KindCall || k == KindRet
}

// Byte sizes of the prefetch instruction encodings (§III-A/B). prefetcht* on
// x86 is 7 bytes; the context hash adds 2 bytes (16 bits) and the coalescing
// bit-vector adds 1 byte (8 bits) with the paper's default parameters.
const (
	// PrefetchSize is the size of the plain prefetch instruction.
	PrefetchSize = 7
	// CtxHashBytes is the size of the default 16-bit context hash operand.
	CtxHashBytes = 2
	// BitVecBytes is the size of the default 8-bit coalescing bit-vector.
	BitVecBytes = 1
	// CprefetchSize = base + context hash.
	CprefetchSize = PrefetchSize + CtxHashBytes
	// LprefetchSize = base + bit-vector (paper: "Lprefetch has a size of 8 bytes").
	LprefetchSize = PrefetchSize + BitVecBytes
	// CLprefetchSize = base + context hash + bit-vector.
	CLprefetchSize = PrefetchSize + CtxHashBytes + BitVecBytes
)

// PrefetchKindSize returns the encoded byte size of a prefetch instruction of
// kind k, given a context hash of ctxBytes bytes and a coalescing bit-vector
// of vecBytes bytes. Passing the defaults (CtxHashBytes, BitVecBytes)
// reproduces the constant sizes above. Non-prefetch kinds return 0.
func PrefetchKindSize(k Kind, ctxBytes, vecBytes int) int {
	switch k {
	case KindPrefetch:
		return PrefetchSize
	case KindCprefetch:
		return PrefetchSize + ctxBytes
	case KindLprefetch:
		return PrefetchSize + vecBytes
	case KindCLprefetch:
		return PrefetchSize + ctxBytes + vecBytes
	default:
		return 0
	}
}

// Instr is a single instruction. Ordinary instructions only use Kind and
// Size. Prefetch instructions additionally carry operands; their target is
// symbolic — a (block, byte-delta) pair — until layout resolves it to a
// concrete address, so that re-laying-out an injected program relocates
// prefetch targets along with the code they point at.
type Instr struct {
	// Kind is the instruction kind.
	Kind Kind
	// Size is the encoded size in bytes.
	Size uint8

	// TargetBlock is, for prefetch kinds, the ID of the basic block whose
	// code the prefetch targets. -1 when unused.
	TargetBlock int32
	// TargetDelta is the byte offset, relative to the start of TargetBlock,
	// of the first byte of the target cache line (it may be negative when the
	// target line begins before the block does).
	TargetDelta int32
	// TargetAddr is the resolved target line address. Program.Layout fills
	// it in from (TargetBlock, TargetDelta).
	TargetAddr Addr

	// CtxHash is the context-hash immediate of conditional prefetches.
	CtxHash uint64
	// BitVec is the coalescing bit-vector of coalesced prefetches; bit i set
	// means "also prefetch the line i+1 lines after the target line".
	BitVec uint64

	// CtxAddrs lists the context blocks' addresses behind CtxHash. Hardware
	// sees only the hash; the simulator carries the addresses as an oracle
	// to measure the hash's false-positive rate (Fig. 21). Never consulted
	// by the firing logic.
	CtxAddrs []Addr
}

// NewInstr returns an ordinary (non-prefetch) instruction.
func NewInstr(k Kind, size int) Instr {
	return Instr{Kind: k, Size: uint8(size), TargetBlock: -1}
}

// NewPrefetch returns a prefetch instruction of kind k targeting the line
// delta bytes into block. ctxHash and bitVec are ignored for kinds that do
// not carry them. The encoded size uses the default operand widths.
func NewPrefetch(k Kind, block, delta int, ctxHash uint64, bitVec uint64) Instr {
	in := Instr{
		Kind:        k,
		Size:        uint8(PrefetchKindSize(k, CtxHashBytes, BitVecBytes)),
		TargetBlock: int32(block),
		TargetDelta: int32(delta),
	}
	if k.IsConditional() {
		in.CtxHash = ctxHash
	}
	if k.IsCoalesced() {
		in.BitVec = bitVec
	}
	return in
}

// CoalescedLines returns the list of line addresses a prefetch instruction
// brings in: the base target line plus one line per set bit of the
// bit-vector. For non-coalesced prefetches it returns just the base line.
// The result is written into dst to avoid allocation; dst may be nil.
func (in *Instr) CoalescedLines(dst []Addr) []Addr {
	base := LineOf(in.TargetAddr)
	dst = append(dst, base)
	if !in.Kind.IsCoalesced() {
		return dst
	}
	v := in.BitVec
	for i := 0; v != 0; i++ {
		if v&1 != 0 {
			dst = append(dst, base+Addr(i+1)*LineSize)
		}
		v >>= 1
	}
	return dst
}

// Block is a basic block: a straight-line instruction sequence ending in (at
// most) one terminator. Control-flow *behavior* (successor choice) lives in
// the workload package; the ISA layer only knows static layout.
type Block struct {
	// ID is the block's index in Program.Blocks.
	ID int
	// Func is the index of the owning function in Program.Funcs.
	Func int
	// Addr is the block's start address; assigned by Program.Layout.
	Addr Addr
	// Instrs is the block's instruction list.
	Instrs []Instr
}

// Size returns the block's total encoded size in bytes.
func (b *Block) Size() int {
	n := 0
	for i := range b.Instrs {
		n += int(b.Instrs[i].Size)
	}
	return n
}

// FirstLine and LastLine return the first and last cache line addresses the
// block's bytes touch. A zero-size block touches the line of its start
// address only.
func (b *Block) FirstLine() Addr { return LineOf(b.Addr) }

// LastLine returns the address of the last cache line overlapped by the
// block's bytes.
func (b *Block) LastLine() Addr {
	sz := b.Size()
	if sz == 0 {
		return LineOf(b.Addr)
	}
	return LineOf(b.Addr + Addr(sz) - 1)
}

// Lines returns the number of cache lines the block overlaps.
func (b *Block) Lines() int {
	return int((b.LastLine()-b.FirstLine())/LineSize) + 1
}

// Func is a function: an ordered, contiguous run of basic blocks. The first
// block is the entry point.
type Func struct {
	// Name identifies the function in reports.
	Name string
	// Blocks lists the IDs of the function's blocks in layout order.
	Blocks []int
	// Align is the function's start alignment in bytes (0 or 1 = none).
	Align int
}

// Program is a complete static program: the unit the profiler observes, the
// offline analysis rewrites, and the simulator executes.
type Program struct {
	// Blocks holds every basic block; Blocks[i].ID == i.
	Blocks []Block
	// Funcs holds every function in layout order.
	Funcs []Func
	// TextSize is the total laid-out text-segment size in bytes (set by
	// Layout).
	TextSize uint64
}

// Layout assigns addresses to every block: functions are placed in order
// starting at TextBase, each aligned to its Align; blocks within a function
// are contiguous. It then resolves the symbolic targets of every prefetch
// instruction. Layout must be called after any structural change (such as
// prefetch injection) and before simulation.
func (p *Program) Layout() {
	addr := TextBase
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		if f.Align > 1 {
			a := Addr(f.Align)
			addr = (addr + a - 1) &^ (a - 1)
		}
		for _, bid := range f.Blocks {
			b := &p.Blocks[bid]
			b.Addr = addr
			addr += Addr(b.Size())
		}
	}
	p.TextSize = uint64(addr - TextBase)
	p.resolveTargets()
}

// resolveTargets fills in Instr.TargetAddr for every prefetch instruction
// from its symbolic (TargetBlock, TargetDelta) pair.
func (p *Program) resolveTargets() {
	for bi := range p.Blocks {
		instrs := p.Blocks[bi].Instrs
		for ii := range instrs {
			in := &instrs[ii]
			if !in.Kind.IsPrefetch() || in.TargetBlock < 0 {
				continue
			}
			base := p.Blocks[in.TargetBlock].Addr
			in.TargetAddr = LineOf(Addr(int64(base) + int64(in.TargetDelta)))
		}
	}
}

// Clone returns a deep copy of the program. Injection does not clone:
// core.Plan.Apply shares the lists of the blocks it leaves unchanged with
// its base and gives only the blocks that host a prefetch lists of their
// own.
func (p *Program) Clone() *Program {
	q := &Program{
		Blocks:   make([]Block, len(p.Blocks)),
		Funcs:    make([]Func, len(p.Funcs)),
		TextSize: p.TextSize,
	}
	for i := range p.Blocks {
		b := p.Blocks[i]
		b.Instrs = append([]Instr(nil), b.Instrs...)
		q.Blocks[i] = b
	}
	for i := range p.Funcs {
		f := p.Funcs[i]
		f.Blocks = append([]int(nil), f.Blocks...)
		q.Funcs[i] = f
	}
	return q
}

// StaticBytes returns the total encoded bytes of all instructions (the static
// code footprint, excluding alignment padding).
func (p *Program) StaticBytes() uint64 {
	var n uint64
	for i := range p.Blocks {
		n += uint64(p.Blocks[i].Size())
	}
	return n
}

// PrefetchBytes returns the bytes contributed by injected prefetch
// instructions, and their count. Together with StaticBytes this yields the
// static code-footprint increase reported in Figs. 4, 14 and 21.
func (p *Program) PrefetchBytes() (bytes uint64, count int) {
	for i := range p.Blocks {
		for _, in := range p.Blocks[i].Instrs {
			if in.Kind.IsPrefetch() {
				bytes += uint64(in.Size)
				count++
			}
		}
	}
	return bytes, count
}

// NumPrefetches returns the number of injected prefetch instructions of each
// kind, keyed by Kind.
func (p *Program) NumPrefetches() map[Kind]int {
	m := make(map[Kind]int, 4)
	for i := range p.Blocks {
		for _, in := range p.Blocks[i].Instrs {
			if in.Kind.IsPrefetch() {
				m[in.Kind]++
			}
		}
	}
	return m
}

// Validate checks structural invariants: block IDs match indices, every
// function block exists, terminators appear only in final position, and
// prefetch targets reference valid blocks. It returns the first violation.
func (p *Program) Validate() error {
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.ID != i {
			return fmt.Errorf("isa: block at index %d has ID %d", i, b.ID)
		}
		for ii, in := range b.Instrs {
			if in.Kind.IsTerminator() && ii != len(b.Instrs)-1 {
				return fmt.Errorf("isa: block %d has terminator %v at position %d/%d", i, in.Kind, ii, len(b.Instrs))
			}
			if in.Kind.IsPrefetch() {
				if in.TargetBlock < 0 || int(in.TargetBlock) >= len(p.Blocks) {
					return fmt.Errorf("isa: block %d prefetch targets invalid block %d", i, in.TargetBlock)
				}
			}
		}
	}
	for fi := range p.Funcs {
		for _, bid := range p.Funcs[fi].Blocks {
			if bid < 0 || bid >= len(p.Blocks) {
				return fmt.Errorf("isa: func %q references invalid block %d", p.Funcs[fi].Name, bid)
			}
			if p.Blocks[bid].Func != fi {
				return fmt.Errorf("isa: block %d owned by func %d but listed in func %d", bid, p.Blocks[bid].Func, fi)
			}
		}
	}
	return nil
}
