package lbr

import (
	"testing"
	"testing/quick"

	"ispy/internal/hashx"
	"ispy/internal/isa"
)

func push(l *LBR, block int32, cycle uint64) {
	l.Push(block, isa.Addr(0x400000+uint64(block)*0x40), cycle, cycle*4)
}

func TestEmpty(t *testing.T) {
	l := New(16)
	if l.Len() != 0 {
		t.Error("new LBR not empty")
	}
	if l.RuntimeHash() != 0 {
		t.Error("new LBR has nonzero hash")
	}
	if got := l.Snapshot(nil); len(got) != 0 {
		t.Error("snapshot of empty LBR not empty")
	}
}

func TestFIFOOrder(t *testing.T) {
	l := New(16)
	for i := int32(0); i < 5; i++ {
		push(l, i, uint64(i*10))
	}
	snap := l.Snapshot(nil)
	if len(snap) != 5 {
		t.Fatalf("len = %d", len(snap))
	}
	for i, e := range snap {
		if e.Block != int32(i) {
			t.Errorf("snapshot[%d].Block = %d, want %d (oldest first)", i, e.Block, i)
		}
	}
}

func TestDepthEviction(t *testing.T) {
	l := New(16)
	for i := int32(0); i < Depth+10; i++ {
		push(l, i, uint64(i))
	}
	if l.Len() != Depth {
		t.Fatalf("Len = %d, want %d", l.Len(), Depth)
	}
	snap := l.Snapshot(nil)
	if snap[0].Block != 10 {
		t.Errorf("oldest surviving block = %d, want 10", snap[0].Block)
	}
	if snap[Depth-1].Block != Depth+9 {
		t.Errorf("newest block = %d, want %d", snap[Depth-1].Block, Depth+9)
	}
}

func TestAtNewestFirst(t *testing.T) {
	l := New(16)
	for i := int32(0); i < 40; i++ {
		push(l, i, uint64(i))
	}
	if l.At(0).Block != 39 {
		t.Errorf("At(0) = %d, want newest (39)", l.At(0).Block)
	}
	if l.At(l.Len()-1).Block != 8 {
		t.Errorf("At(last) = %d, want oldest (8)", l.At(l.Len()-1).Block)
	}
}

// TestBlocksMatchesAt checks Blocks against At at every fill level and
// ring rotation, including the partly filled and the wrapped ring.
func TestBlocksMatchesAt(t *testing.T) {
	l := New(16)
	for n := int32(0); n < 3*Depth; n++ {
		got := l.Blocks([]int32{-1})
		if len(got) != 1+l.Len() || got[0] != -1 {
			t.Fatalf("after %d pushes: Blocks did not append to dst: %v", n, got)
		}
		for i := 0; i < l.Len(); i++ {
			if got[1+i] != l.At(i).Block {
				t.Fatalf("after %d pushes: Blocks[%d] = %d, At(%d).Block = %d", n, i, got[1+i], i, l.At(i).Block)
			}
		}
		push(l, n, uint64(n))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	l := New(16)
	push(l, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("At(1) on 1-entry LBR should panic")
		}
	}()
	l.At(1)
}

func TestHashTracksEviction(t *testing.T) {
	// After pushing Depth+K distinct blocks, the hash must reflect exactly
	// the resident Depth blocks: every resident block matches.
	l := New(64)
	for i := int32(0); i < Depth+8; i++ {
		push(l, i, uint64(i))
	}
	for i := 0; i < l.Len(); i++ {
		e := l.At(i)
		if !l.Match(hashx.BlockBits(uint64(e.Addr), 64)) {
			t.Fatalf("resident block %d does not match runtime hash", e.Block)
		}
	}
}

func TestMatchNoFalseNegatives(t *testing.T) {
	f := func(blocks []int32) bool {
		l := New(16)
		for _, b := range blocks {
			if b < 0 {
				b = -b
			}
			push(l, b%1000, 0)
		}
		for i := 0; i < l.Len(); i++ {
			if !l.Match(hashx.BlockBits(uint64(l.At(i).Addr), 16)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsBlockGroundTruth(t *testing.T) {
	l := New(16)
	push(l, 7, 0)
	if !l.ContainsBlock(isa.Addr(0x400000 + 7*0x40)) {
		t.Error("ContainsBlock misses a resident block")
	}
	if l.ContainsBlock(isa.Addr(0x999999)) {
		t.Error("ContainsBlock claims absent address")
	}
}

func TestContainsAll(t *testing.T) {
	l := New(16)
	push(l, 1, 0)
	push(l, 2, 0)
	a1 := isa.Addr(0x400000 + 1*0x40)
	a2 := isa.Addr(0x400000 + 2*0x40)
	if !l.ContainsAll([]isa.Addr{a1, a2}) {
		t.Error("ContainsAll false for resident set")
	}
	if l.ContainsAll([]isa.Addr{a1, 0x123456}) {
		t.Error("ContainsAll true with an absent member")
	}
	if !l.ContainsAll(nil) {
		t.Error("ContainsAll(nil) should be true")
	}
}

func TestCycleAndInstrMetadata(t *testing.T) {
	l := New(16)
	l.Push(3, 0x400300, 123, 456)
	e := l.At(0)
	if e.Cycle != 123 || e.Instrs != 456 {
		t.Errorf("entry metadata = (%d, %d), want (123, 456)", e.Cycle, e.Instrs)
	}
}

func TestReset(t *testing.T) {
	l := New(16)
	for i := int32(0); i < 10; i++ {
		push(l, i, 0)
	}
	l.Reset()
	if l.Len() != 0 || l.RuntimeHash() != 0 {
		t.Error("Reset did not clear the LBR")
	}
	// Must be reusable after reset.
	push(l, 5, 9)
	if l.Len() != 1 || l.At(0).Block != 5 {
		t.Error("LBR unusable after Reset")
	}
}

func TestRepeatedBlockDoesNotUnderflow(t *testing.T) {
	// A tight loop pushes the same block many times; rotating them out must
	// keep the counting filter consistent (this is the scenario counting
	// Bloom filters exist for).
	l := New(16)
	for i := 0; i < 200; i++ {
		push(l, 42, uint64(i))
	}
	for i := int32(0); i < Depth; i++ {
		push(l, 100+i, 0)
	}
	if l.ContainsBlock(isa.Addr(0x400000 + 42*0x40)) {
		t.Error("block 42 should have rotated out")
	}
	if l.Match(hashx.BlockBits(uint64(isa.Addr(0x400000+42*0x40)), 16)) {
		// This may alias; only fail if the specific bit is *not* covered by
		// residents — i.e., check the filter's exact-count invariant
		// indirectly by removing everything.
		resident := map[int]bool{}
		for i := 0; i < l.Len(); i++ {
			resident[hashx.BlockBitIndex(uint64(l.At(i).Addr), 16)] = true
		}
		if !resident[hashx.BlockBitIndex(uint64(isa.Addr(0x400000+42*0x40)), 16)] {
			t.Error("hash claims bit with no resident contributor")
		}
	}
}
