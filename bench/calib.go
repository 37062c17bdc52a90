package main

import (
	"math"
	"sync"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts by
// ±20% within seconds (NOISE.md), which no amount of work within one run
// averages out. Each end-to-end run therefore takes a calibration sample —
// a fixed workload of this file's own — before every set-up and every
// measured slice, and after the last slice, and scales its times by
// referenceCalibMS over the geometric mean of the samples. No change to the
// repository moves the calibration, so a change that makes ispy faster
// shows in full.
//
// referenceCalibMS is the median, over the runs of NOISE.md, of a run's
// geometric-mean calibration sample on the reference host (the 2-vCPU Xeon
// of NOISE.md), so scaled times read as a typical run's milliseconds there.
const referenceCalibMS = 61.4

// calibrate returns one calibration sample in ms: the geometric mean over
// four kernels of the time the kernel takes running on `clients` goroutines
// at once. The kernels stand for what the programs under test spend their
// time on: an L2-resident random walk (the cache model), branchy integer
// arithmetic (the executor), map updates (the analysis) and small
// allocations (the garbage collector).
func calibrate() float64 {
	logSum := 0.0
	kernels := []func(seed uint64) uint64{walk, arith, maps, allocs}
	for _, k := range kernels {
		sums := make([]uint64, clients)
		began := time.Now()
		var wg sync.WaitGroup
		for g := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[g] = k(uint64(g + 1))
			}()
		}
		wg.Wait()
		logSum += math.Log(ms(time.Since(began)))
	}
	return math.Exp(logSum / float64(len(kernels)))
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// walk follows 10M random links through a 256 KiB table.
func walk(seed uint64) uint64 {
	const n = 1 << 16
	next := make([]uint32, n)
	x := seed
	for i := range next {
		x = xorshift(x)
		next[i] = uint32(x % n)
	}
	p, sum := uint32(0), uint64(0)
	for i := uint32(0); i < 10_000_000; i++ {
		p = next[p] ^ i&(n-1)
		sum += uint64(p)
	}
	return sum
}

// arith runs 20M steps of a xorshift generator with a data-dependent branch.
func arith(seed uint64) uint64 {
	x := seed
	for i := 0; i < 20_000_000; i++ {
		x = xorshift(x)
		if x&1 == 0 {
			x += 3
		}
	}
	return x
}

// maps makes 1.5M updates to a map of up to 64Ki keys.
func maps(seed uint64) uint64 {
	m := map[uint64]uint64{}
	x := seed
	for i := 0; i < 1_500_000; i++ {
		x = xorshift(x)
		m[x&0xffff] += x
	}
	return uint64(len(m))
}

// allocs allocates 300k small slices, keeping up to a thousand alive.
func allocs(seed uint64) uint64 {
	var keep [][]int32
	for i := 0; i < 300_000; i++ {
		s := make([]int32, 16+i%32)
		s[0] = int32(seed) + int32(i)
		keep = append(keep, s)
		if len(keep) > 1000 {
			keep = keep[:0]
		}
	}
	return uint64(len(keep))
}
