// Package hashx implements the two hash functions I-SPY uses to compress
// basic-block addresses into the n-bit context hash of Cprefetch/CLprefetch
// instructions (§III-A): FNV-1 over an address's bytes (FNV1U64), mixed by
// MurmurHash3's 64-bit finalizer (Murmur3Fmix64). Both are written from
// scratch; the standard library's hash/fnv is deliberately not used so the
// hardware-facing bit selection is fully explicit and testable. The package
// also holds Uniform, the seeded [0,1) draw behind fault injection, and
// XXH64, the artifact cache's entry checksum.
package hashx

// FNV-1 64-bit parameters (Fowler–Noll–Vo, 1991).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNV1a64 hashes b with 64-bit FNV-1a (xor-then-multiply variant).
func FNV1a64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// FNV1_64 hashes b with classic 64-bit FNV-1 (multiply-then-xor), the
// variant the paper names.
func FNV1_64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h *= fnvPrime64
		h ^= uint64(c)
	}
	return h
}

// FNV1U64 hashes a uint64 (e.g. a basic-block address) with FNV-1 by feeding
// its 8 little-endian bytes.
func FNV1U64(v uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h *= fnvPrime64
		h ^= v & 0xff
		v >>= 8
	}
	return h
}

// Murmur3Fmix64 is MurmurHash3's 64-bit finalizer (fmix64). It is a strong
// bijective mixer and is the form of "MurmurHash3" a hardware hasher of a
// single 64-bit address would implement.
func Murmur3Fmix64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// BlockBits maps a basic-block address to its single set bit within an
// nbits-wide context hash. Per the paper's Fig. 6/7 example ("assume the
// 16-bit hashes of B and E are 0x2 and 0x10"), each block contributes one
// bit; both hash functions participate by composition (MurmurHash3's
// finalizer over the FNV-1 digest selects the bit). One bit per block also
// matches Fig. 7's overflow argument: 32 LBR entries bound every 6-bit
// counter at 32 < 63.
//
// The same function drives both the offline encoder (building Cprefetch's
// context-hash immediate) and the runtime counting Bloom filter, so offline
// and runtime views of a block always agree.
//
// nbits must be a power of two in [2, 64].
func BlockBits(addr uint64, nbits int) uint64 {
	return 1 << BlockBitIndex(addr, nbits)
}

// BlockBitIndex returns the bit index BlockBits sets for addr.
func BlockBitIndex(addr uint64, nbits int) int {
	return int(Murmur3Fmix64(FNV1U64(addr)) & uint64(nbits-1))
}

// ContextHash ORs the BlockBits signatures of every address in blocks,
// producing the context-hash immediate encoded into a Cprefetch/CLprefetch
// instruction for that predecessor-block set.
func ContextHash(blocks []uint64, nbits int) uint64 {
	var h uint64
	for _, a := range blocks {
		h |= BlockBits(a, nbits)
	}
	return h
}

// IsPow2 reports whether v is a power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Uniform maps (seed, site, n) to [0,1) deterministically: the site's FNV-1a
// hash and the counter n, mixed into seed by the splitmix64 finalizer. Fault
// firing draws from it, so chaos runs replay exactly.
func Uniform(seed uint64, site string, n uint64) float64 {
	x := seed ^ FNV1a64([]byte(site)) ^ (n * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// XXH64 parameters (Yann Collet's xxHash, 64-bit variant).
const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

// XXH64 hashes b with 64-bit xxHash at seed 0. It reads eight bytes per
// multiply where FNV-1a reads one, so it checksums a cache entry more than
// ten times faster.
func XXH64(b []byte) uint64 {
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		p1, p2 := xxPrime1, xxPrime2 // variables: the seed-0 lanes wrap around
		v1, v2, v3, v4 := p1+p2, p2, uint64(0), -p1
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxRound(v1, le64(b))
			v2 = xxRound(v2, le64(b[8:]))
			v3 = xxRound(v3, le64(b[16:]))
			v4 = xxRound(v4, le64(b[24:]))
		}
		h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = xxPrime5
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxRound(0, le64(b))
		h = rotl(h, 27)*xxPrime1 + xxPrime4
	}
	if len(b) >= 4 {
		h ^= uint64(uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24) * xxPrime1
		h = rotl(h, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxPrime5
		h = rotl(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// xxRound folds one 8-byte lane into an XXH64 accumulator.
func xxRound(acc, lane uint64) uint64 {
	acc += lane * xxPrime2
	return rotl(acc, 31) * xxPrime1
}

// xxMerge folds a lane accumulator into the converged XXH64 state.
func xxMerge(h, v uint64) uint64 {
	h ^= xxRound(0, v)
	return h*xxPrime1 + xxPrime4
}

// le64 loads the first eight bytes of b as a little-endian uint64; the
// compiler fuses the shifts into one load.
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// rotl rotates x left by r bits; the compiler emits one rotate instruction.
func rotl(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }
