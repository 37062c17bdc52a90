package hashx

import (
	"math"
	"testing"
	"testing/quick"
)

// FNV-1a has well-known published vectors; verify against a few.
func TestFNV1a64KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 14695981039346656037},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	}
	for _, c := range cases {
		if got := FNV1a64([]byte(c.in)); got != c.want {
			t.Errorf("FNV1a64(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

// FNV-1 (multiply-then-xor) vectors.
func TestFNV1_64KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 14695981039346656037},
		{"a", 0xaf63bd4c8601b7be},
		{"foobar", 0x340d8765a4dda9c2},
	}
	for _, c := range cases {
		if got := FNV1_64([]byte(c.in)); got != c.want {
			t.Errorf("FNV1_64(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestFNV1U64MatchesByteForm(t *testing.T) {
	f := func(v uint64) bool {
		b := []byte{
			byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
			byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
		}
		return FNV1U64(v) == FNV1_64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMurmur3Fmix64IsBijectiveish(t *testing.T) {
	// fmix64 is a bijection; distinct inputs in a small set must map to
	// distinct outputs.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Murmur3Fmix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: fmix64(%d) == fmix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestMurmur3Fmix64Zero(t *testing.T) {
	if Murmur3Fmix64(0) != 0 {
		t.Error("fmix64(0) should be 0 (fixed point of the finalizer)")
	}
}

func TestBlockBitsSingleBit(t *testing.T) {
	for _, nbits := range []int{2, 4, 8, 16, 32, 64} {
		for addr := uint64(0x400000); addr < 0x400000+1000; addr += 13 {
			bits := BlockBits(addr, nbits)
			if bits == 0 || bits&(bits-1) != 0 {
				t.Fatalf("BlockBits(%#x, %d) = %#x, want exactly one set bit", addr, nbits, bits)
			}
			if idx := BlockBitIndex(addr, nbits); idx < 0 || idx >= nbits {
				t.Fatalf("BlockBitIndex(%#x, %d) = %d exceeds width", addr, nbits, idx)
			}
		}
	}
}

func TestBlockBitIndexDeterministic(t *testing.T) {
	if BlockBitIndex(0x401234, 16) != BlockBitIndex(0x401234, 16) {
		t.Error("BlockBitIndex not deterministic")
	}
}

func TestBlockBitsDistribution(t *testing.T) {
	// Block addresses map roughly uniformly over the 16 bit positions.
	counts := make([]int, 16)
	n := 16000
	for i := 0; i < n; i++ {
		addr := uint64(0x400000 + i*37)
		counts[BlockBitIndex(addr, 16)]++
	}
	want := n / 16
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bit %d hit %d times, want ≈%d", i, c, want)
		}
	}
}

func TestContextHashIsORofBlockBits(t *testing.T) {
	f := func(a, b, c uint64) bool {
		h := ContextHash([]uint64{a, b, c}, 16)
		return h == BlockBits(a, 16)|BlockBits(b, 16)|BlockBits(c, 16)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContextHashEmpty(t *testing.T) {
	if ContextHash(nil, 16) != 0 {
		t.Error("empty context must hash to 0")
	}
}

func TestContextHashSubsetProperty(t *testing.T) {
	// A sub-context's hash bits are always a subset of the full context's.
	f := func(a, b uint64) bool {
		full := ContextHash([]uint64{a, b}, 16)
		sub := ContextHash([]uint64{a}, 16)
		return sub&^full == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	truths := map[int]bool{1: true, 2: true, 16: true, 64: true, 0: false, -4: false, 3: false, 48: false}
	for v, want := range truths {
		if got := IsPow2(v); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", v, got, want)
		}
	}
}

// TestUniformPinned pins Uniform bit for bit: seeded fault decisions replay
// only while it maps each (seed, site, n) to the same draw.
func TestUniformPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		site string
		n    uint64
		want uint64
	}{
		{1, "artifacts.read", 0, 0x3fa52d19863230c0},
		{20260807, "compute/base/wordpress", 3, 0x3fe38368823520b4},
		{0, "", 1 << 40, 0x3fe1851e6e5c4185},
	} {
		if got := Uniform(c.seed, c.site, c.n); math.Float64bits(got) != c.want {
			t.Errorf("Uniform(%d, %q, %d) = %v (%#x), want %#x",
				c.seed, c.site, c.n, got, math.Float64bits(got), c.want)
		}
	}
}

// XXH64 at seed 0 against published vectors. The 63-byte input runs the
// four-lane loop over one stripe, then three 8-byte lanes, the 4-byte step
// and three single bytes.
func TestXXH64KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$", 0x1032d841e824f998},
	}
	for _, c := range cases {
		if got := XXH64([]byte(c.in)); got != c.want {
			t.Errorf("XXH64(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
