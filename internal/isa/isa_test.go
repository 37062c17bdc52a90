package isa

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {65, 64}, {0x400037, 0x400000},
	}
	for _, c := range cases {
		if got := LineOf(c.in); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestLineIndex(t *testing.T) {
	if LineIndex(128) != 2 || LineIndex(129) != 2 {
		t.Error("LineIndex wrong")
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{KindPrefetch, KindCprefetch, KindLprefetch, KindCLprefetch} {
		if !k.IsPrefetch() {
			t.Errorf("%v should be a prefetch", k)
		}
	}
	for _, k := range []Kind{KindALU, KindLoad, KindBranch, KindRet} {
		if k.IsPrefetch() {
			t.Errorf("%v should not be a prefetch", k)
		}
	}
	if !KindCprefetch.IsConditional() || !KindCLprefetch.IsConditional() {
		t.Error("conditional kinds wrong")
	}
	if KindPrefetch.IsConditional() || KindLprefetch.IsConditional() {
		t.Error("non-conditional kinds wrong")
	}
	if !KindLprefetch.IsCoalesced() || !KindCLprefetch.IsCoalesced() {
		t.Error("coalesced kinds wrong")
	}
	for _, k := range []Kind{KindBranch, KindJump, KindCall, KindRet} {
		if !k.IsTerminator() {
			t.Errorf("%v should be a terminator", k)
		}
	}
	if KindALU.IsTerminator() || KindPrefetch.IsTerminator() {
		t.Error("non-terminators misclassified")
	}
}

func TestKindString(t *testing.T) {
	if KindCprefetch.String() != "cprefetch" {
		t.Errorf("String = %q", KindCprefetch.String())
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind should still render")
	}
}

// Encoded sizes per §III: prefetcht* is 7 bytes; +2 for the 16-bit context
// hash; +1 for the 8-bit bit-vector.
func TestPrefetchSizes(t *testing.T) {
	if PrefetchSize != 7 || CprefetchSize != 9 || LprefetchSize != 8 || CLprefetchSize != 10 {
		t.Fatalf("sizes = %d %d %d %d", PrefetchSize, CprefetchSize, LprefetchSize, CLprefetchSize)
	}
	if PrefetchKindSize(KindCLprefetch, 4, 2) != 13 {
		t.Error("custom operand widths not honored")
	}
	if PrefetchKindSize(KindALU, 2, 1) != 0 {
		t.Error("non-prefetch kinds must size to 0")
	}
}

func TestNewPrefetchOperands(t *testing.T) {
	in := NewPrefetch(KindCLprefetch, 5, -8, 0x12, 0x81)
	if in.TargetBlock != 5 || in.TargetDelta != -8 {
		t.Error("target not recorded")
	}
	if in.CtxHash != 0x12 || in.BitVec != 0x81 {
		t.Error("operands not recorded")
	}
	plain := NewPrefetch(KindPrefetch, 1, 0, 0xff, 0xff)
	if plain.CtxHash != 0 || plain.BitVec != 0 {
		t.Error("plain prefetch must not carry conditional/coalescing operands")
	}
}

func TestCoalescedLines(t *testing.T) {
	in := NewPrefetch(KindLprefetch, 0, 0, 0, 0b101) // base, +1, +3
	in.TargetAddr = 0x400000
	lines := in.CoalescedLines(nil)
	want := []Addr{0x400000, 0x400040, 0x4000c0}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("lines[%d] = %#x, want %#x", i, lines[i], want[i])
		}
	}
	// Non-coalesced kinds return just the base.
	p := NewPrefetch(KindCprefetch, 0, 0, 1, 0xff)
	p.TargetAddr = 0x400040
	if got := p.CoalescedLines(nil); len(got) != 1 || got[0] != 0x400040 {
		t.Errorf("Cprefetch lines = %v", got)
	}
}

// buildProgram makes a 2-function program: f0 = {b0, b1}, f1 = {b2}.
func buildProgram() *Program {
	p := &Program{}
	add := func(fi int, instrs ...Instr) int {
		id := len(p.Blocks)
		p.Blocks = append(p.Blocks, Block{ID: id, Func: fi, Instrs: instrs})
		p.Funcs[fi].Blocks = append(p.Funcs[fi].Blocks, id)
		return id
	}
	p.Funcs = append(p.Funcs, Func{Name: "f0", Align: 64}, Func{Name: "f1", Align: 64})
	add(0, NewInstr(KindALU, 4), NewInstr(KindALU, 4), NewInstr(KindBranch, 2)) // 10 bytes
	add(0, NewInstr(KindALU, 30), NewInstr(KindRet, 1))                         // 31 bytes
	add(1, NewInstr(KindALU, 8), NewInstr(KindRet, 1))                          // 9 bytes
	return p
}

func TestLayoutAddresses(t *testing.T) {
	p := buildProgram()
	p.Layout()
	if p.Blocks[0].Addr != TextBase {
		t.Errorf("b0 at %#x, want %#x", p.Blocks[0].Addr, TextBase)
	}
	if p.Blocks[1].Addr != TextBase+10 {
		t.Errorf("b1 at %#x, want %#x", p.Blocks[1].Addr, TextBase+10)
	}
	// f1 is 64-aligned after f0's 41 bytes.
	if p.Blocks[2].Addr != TextBase+64 {
		t.Errorf("b2 at %#x, want %#x", p.Blocks[2].Addr, TextBase+64)
	}
	if p.TextSize != 64+9 {
		t.Errorf("TextSize = %d", p.TextSize)
	}
}

func TestLayoutResolvesPrefetchTargets(t *testing.T) {
	p := buildProgram()
	pf := NewPrefetch(KindPrefetch, 2, 0, 0, 0)
	p.Blocks[0].Instrs = append([]Instr{pf}, p.Blocks[0].Instrs...)
	p.Layout()
	in := &p.Blocks[0].Instrs[0]
	if in.TargetAddr != LineOf(p.Blocks[2].Addr) {
		t.Errorf("TargetAddr = %#x, want %#x", in.TargetAddr, LineOf(p.Blocks[2].Addr))
	}
	// Negative delta resolves to the previous line.
	p2 := buildProgram()
	pf2 := NewPrefetch(KindPrefetch, 2, -4, 0, 0)
	p2.Blocks[0].Instrs = append([]Instr{pf2}, p2.Blocks[0].Instrs...)
	p2.Layout()
	if got := p2.Blocks[0].Instrs[0].TargetAddr; got != LineOf(p2.Blocks[2].Addr-4) {
		t.Errorf("negative-delta TargetAddr = %#x", got)
	}
}

func TestBlockGeometry(t *testing.T) {
	p := buildProgram()
	p.Layout()
	b1 := &p.Blocks[1] // 31 bytes at TextBase+10 → spans lines 0..0 (10..41 < 64)
	if b1.Size() != 31 {
		t.Errorf("Size = %d", b1.Size())
	}
	if b1.Lines() != 1 {
		t.Errorf("Lines = %d", b1.Lines())
	}
	if b1.FirstLine() != TextBase || b1.LastLine() != TextBase {
		t.Error("line span wrong")
	}
}

func TestBlockSpanningLines(t *testing.T) {
	p := &Program{}
	p.Funcs = append(p.Funcs, Func{Name: "f", Align: 64})
	p.Blocks = append(p.Blocks, Block{ID: 0, Func: 0, Instrs: []Instr{
		NewInstr(KindALU, 100), NewInstr(KindRet, 1),
	}})
	p.Funcs[0].Blocks = []int{0}
	p.Layout()
	if got := p.Blocks[0].Lines(); got != 2 {
		t.Errorf("101-byte block spans %d lines, want 2", got)
	}
}

func TestCloneDeepCopies(t *testing.T) {
	p := buildProgram()
	p.Layout()
	q := p.Clone()
	q.Blocks[0].Instrs[0] = NewInstr(KindNop, 1)
	q.Funcs[0].Blocks[0] = 99
	if p.Blocks[0].Instrs[0].Kind == KindNop {
		t.Error("Clone shares instruction storage")
	}
	if p.Funcs[0].Blocks[0] == 99 {
		t.Error("Clone shares function block lists")
	}
}

func TestStaticAndPrefetchBytes(t *testing.T) {
	p := buildProgram()
	base := p.StaticBytes()
	if base != 10+31+9 {
		t.Errorf("StaticBytes = %d", base)
	}
	pf := NewPrefetch(KindCprefetch, 2, 0, 1, 0)
	p.Blocks[0].Instrs = append([]Instr{pf}, p.Blocks[0].Instrs...)
	bytes, count := p.PrefetchBytes()
	if bytes != CprefetchSize || count != 1 {
		t.Errorf("PrefetchBytes = (%d, %d)", bytes, count)
	}
	if p.StaticBytes() != base+CprefetchSize {
		t.Error("StaticBytes must include injected prefetches")
	}
	m := p.NumPrefetches()
	if m[KindCprefetch] != 1 || len(m) != 1 {
		t.Errorf("NumPrefetches = %v", m)
	}
}

func TestValidateCatchesBadID(t *testing.T) {
	p := buildProgram()
	p.Blocks[1].ID = 7
	if p.Validate() == nil {
		t.Error("Validate missed wrong block ID")
	}
}

func TestValidateCatchesMidBlockTerminator(t *testing.T) {
	p := buildProgram()
	p.Blocks[0].Instrs[0] = NewInstr(KindJump, 5)
	if p.Validate() == nil {
		t.Error("Validate missed mid-block terminator")
	}
}

func TestValidateCatchesBadPrefetchTarget(t *testing.T) {
	p := buildProgram()
	pf := NewPrefetch(KindPrefetch, 99, 0, 0, 0)
	p.Blocks[0].Instrs = append([]Instr{pf}, p.Blocks[0].Instrs...)
	if p.Validate() == nil {
		t.Error("Validate missed invalid prefetch target")
	}
}

func TestValidateCatchesWrongFuncOwnership(t *testing.T) {
	p := buildProgram()
	p.Blocks[2].Func = 0
	if p.Validate() == nil {
		t.Error("Validate missed func/block ownership mismatch")
	}
}

func TestValidGoldenProgram(t *testing.T) {
	p := buildProgram()
	if err := p.Validate(); err != nil {
		t.Errorf("golden program invalid: %v", err)
	}
}

func TestLayoutIdempotent(t *testing.T) {
	f := func(seed uint8) bool {
		p := buildProgram()
		p.Layout()
		a := p.Blocks[2].Addr
		p.Layout()
		return p.Blocks[2].Addr == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
