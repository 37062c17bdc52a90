package bloom

import (
	"testing"
	"testing/quick"

	"ispy/internal/hashx"
)

func TestNewValidatesWidth(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 12, 65, 128, -16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", bad)
				}
			}()
			New(bad)
		}()
	}
	for _, good := range []int{2, 4, 8, 16, 32, 64} {
		if f := New(good); f.Bits() != good {
			t.Errorf("New(%d).Bits() = %d", good, f.Bits())
		}
	}
}

func TestAddSetsBit(t *testing.T) {
	f := New(16)
	addr := uint64(0x401000)
	f.Add(addr)
	if !f.Subset(hashx.BlockBits(addr, 16)) {
		t.Error("added block's bits must be a subset of the runtime hash")
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	f := New(16)
	addrs := []uint64{0x400000, 0x400040, 0x400080, 0x4000c0}
	for _, a := range addrs {
		f.Add(a)
	}
	for _, a := range addrs {
		f.Remove(a)
	}
	if f.RuntimeHash() != 0 {
		t.Errorf("runtime hash %#x after matched add/remove, want 0", f.RuntimeHash())
	}
}

func TestCountingHandlesDuplicates(t *testing.T) {
	f := New(16)
	a := uint64(0x402000)
	f.Add(a)
	f.Add(a)
	f.Remove(a)
	if !f.Subset(hashx.BlockBits(a, 16)) {
		t.Error("bit must survive removing one of two occurrences")
	}
	f.Remove(a)
	if f.RuntimeHash() != 0 {
		t.Error("bit must clear after removing both occurrences")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	// Property: if every context block is resident, Subset always matches
	// (the firing condition may false-positive, never false-negative).
	f := func(blocks [5]uint64, ctx [2]uint8) bool {
		filt := New(16)
		for _, b := range blocks {
			filt.Add(b)
		}
		// Context drawn from resident blocks.
		c1 := blocks[int(ctx[0])%len(blocks)]
		c2 := blocks[int(ctx[1])%len(blocks)]
		hash := hashx.ContextHash([]uint64{c1, c2}, 16)
		return filt.Subset(hash)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubsetEmptyContextAlwaysFires(t *testing.T) {
	f := New(16)
	if !f.Subset(0) {
		t.Error("empty context hash must match an empty filter")
	}
	f.Add(1)
	if !f.Subset(0) {
		t.Error("empty context hash must match any filter")
	}
}

func TestSubsetDetectsAbsence(t *testing.T) {
	f := New(64) // wide filter to make aliasing unlikely in this test
	f.Add(0x400000)
	// Find an address mapping to a different bit.
	other := uint64(0x400040)
	for hashx.BlockBits(other, 64) == hashx.BlockBits(0x400000, 64) {
		other += 0x40
	}
	if f.Subset(hashx.BlockBits(other, 64)) {
		t.Error("filter claims absent block is present (bits differ, so no alias possible)")
	}
}

func TestRemoveUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Remove on empty filter should panic")
		}
	}()
	New(16).Remove(0x400000)
}

func TestOverflowGuardPanics(t *testing.T) {
	f := New(16)
	defer func() {
		if recover() == nil {
			t.Error("counter overflow should panic")
		}
	}()
	for i := 0; i <= CounterMax+1; i++ {
		f.Add(0x400000) // same address → same counter every time
	}
}

func TestCounterExactness(t *testing.T) {
	f := New(16)
	a := uint64(0x403000)
	idx := hashx.BlockBitIndex(a, 16)
	for i := 1; i <= 5; i++ {
		f.Add(a)
		if got := f.Counter(idx); got != i {
			t.Fatalf("counter = %d after %d adds", got, i)
		}
	}
}

func TestReset(t *testing.T) {
	f := New(16)
	for i := 0; i < 10; i++ {
		f.Add(uint64(0x400000 + i*64))
	}
	f.Reset()
	if f.RuntimeHash() != 0 {
		t.Error("Reset left bits set")
	}
	for i := 0; i < f.Bits(); i++ {
		if f.Counter(i) != 0 {
			t.Errorf("Reset left counter %d at %d", i, f.Counter(i))
		}
	}
}

func TestRuntimeHashMatchesCounters(t *testing.T) {
	// Property: bit i of RuntimeHash is set iff counter i > 0.
	f := func(addrs []uint64) bool {
		filt := New(16)
		for _, a := range addrs {
			if len(addrs) > 50 {
				return true // stay under the counter cap
			}
			filt.Add(a)
		}
		h := filt.RuntimeHash()
		for i := 0; i < 16; i++ {
			set := h&(1<<i) != 0
			if set != (filt.Counter(i) > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
