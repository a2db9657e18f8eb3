// Package xrand is a concrete, allocation-friendly reimplementation of
// the top-level math/rand generator whose value stream is byte-identical
// to rand.New(rand.NewSource(seed)) for every seed and every method this
// repository uses.  It exists for the Monte Carlo hot path (DESIGN.md
// §17):
//
//   - math/rand costs one ~4.9 KB allocation per rand.New (the 607-word
//     lagged-Fibonacci state), paid once per trial.  xrand.Rand is a
//     plain struct whose Seed re-seeds the caller-owned state array in
//     place, so each worker arena holds one Rand for the whole run.
//   - every math/rand draw crosses the rand.Source64 interface, which
//     the compiler cannot devirtualize or inline.  xrand's methods are
//     direct calls on a concrete type.
//   - Fill(dst) generates whole words of random data per call for
//     bitvec.RandomInto and the trial loops' data refill, keeping the
//     tap/feed cursors in registers across the buffer.
//
// Stream compatibility is load-bearing, not incidental: the repo's
// golden files, shard cache keys and unsharded↔sharded↔cluster
// byte-identity all sit on the math/rand value stream, which the Go 1
// compatibility promise freezes.  The differential suite in this
// package (and FuzzXrandStream) pins every method against math/rand;
// the generator core and tables are vendored from the Go standard
// library (Copyright 2009 The Go Authors, BSD-style license).
package xrand

// Generator constants, from src/math/rand/rng.go (algorithm by
// DP Mitchell and JA Reeds: additive lagged-Fibonacci over 607 words
// with tap 273).
const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1
)

// Rand is a deterministic pseudo-random generator with the exact value
// stream of math/rand's rand.New(rand.NewSource(seed)).  The zero value
// is not seeded; call New or Seed before drawing.  Like *rand.Rand it
// is not safe for concurrent use.
type Rand struct {
	tap  int
	feed int
	vec  [rngLen]uint64
}

// New returns a generator seeded with seed, stream-identical to
// rand.New(rand.NewSource(seed)).  Hot paths that reuse a Rand across
// trials should allocate it once (or embed it in an arena) and call
// Seed per trial instead.
func New(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// seedrand computes the next seeding value: x = (48271*x) mod (2**31-1),
// via Schrage's algorithm to avoid overflow.
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed re-initializes the generator to the deterministic state of
// rand.NewSource(seed), writing the state array in place — no
// allocation, so per-trial reseeding of a pooled Rand is free of the
// per-trial source allocation math/rand imposes.
func (r *Rand) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := uint64(x) << 40
			x = seedrand(x)
			u ^= uint64(x) << 20
			x = seedrand(x)
			u ^= uint64(x)
			u ^= uint64(rngCooked[i])
			r.vec[i] = u
		}
	}
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// Fill overwrites dst with pseudo-random words, dst[i] receiving
// exactly the value the i-th Uint64 call would have returned.  The
// generator cursors stay in locals across the whole buffer, so bulk
// data generation (bitvec.RandomInto, the trial loops' data refill)
// pays no per-word cursor reload.
func (r *Rand) Fill(dst []uint64) {
	tap, feed := r.tap, r.feed
	for i := range dst {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := r.vec[feed] + r.vec[tap]
		r.vec[feed] = x
		dst[i] = x
	}
	r.tap, r.feed = tap, feed
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint32 returns a pseudo-random 32-bit value as a uint32.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 returns a non-negative pseudo-random 31-bit integer as an int32.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int returns a non-negative pseudo-random int.
func (r *Rand) Int() int {
	u := uint(r.Int63())
	return int(u << 1 >> 1) // clear sign bit if int == int32
}

// Int63n returns, as an int64, a non-negative pseudo-random number in
// the half-open interval [0,n).  It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n returns, as an int32, a non-negative pseudo-random number in
// the half-open interval [0,n).  It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns, as an int, a non-negative pseudo-random number in the
// half-open interval [0,n).  It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns, as a float64, a pseudo-random number in the
// half-open interval [0.0,1.0).  The clamped-retry construction is the
// Go 1 value stream, bug and all (see the long comment in
// src/math/rand/rand.go).
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

// Float32 returns, as a float32, a pseudo-random number in the
// half-open interval [0.0,1.0).
func (r *Rand) Float32() float32 {
again:
	f := float32(r.Float64())
	if f == 1 {
		goto again // resample; float64 values rounding to 1 are rare
	}
	return f
}

// Perm returns, as a slice of n ints, a pseudo-random permutation of
// the integers in the half-open interval [0,n).
func (r *Rand) Perm(n int) []int {
	m := make([]int, n)
	// In the following loop, the iteration when i=0 always swaps m[0]
	// with m[0].  A change to remove this useless iteration is to
	// assign 1 to i in the init statement.  But Perm also effects
	// r.  Making this change will affect the final state of r.  So
	// this change can't be made for compatibility reasons for Go 1.
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// int31n returns, as an int32, a non-negative pseudo-random number in
// the half-open interval [0,n) using Lemire's multiply-shift rejection.
// Only Shuffle uses it — math/rand keeps this faster bounded draw out
// of Int31n/Intn for Go 1 stream compatibility, and so must we.
func (r *Rand) int31n(n int32) int32 {
	v := r.Uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = r.Uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// Shuffle pseudo-randomizes the order of elements using the default
// Source.  n is the number of elements.  It panics if n < 0.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("invalid argument to Shuffle")
	}
	// Fisher-Yates shuffle: https://en.wikipedia.org/wiki/Fisher%E2%80%93Yates_shuffle
	// Shuffle really ought not be called with n that doesn't fit in 32 bits.
	// Not only will it take a very long time, but with 2³¹! possible permutations,
	// there's no way that any PRNG can have a big enough internal state to
	// generate even a minuscule percentage of the possible permutations.
	// Nevertheless, the right API signature accepts an int n, so handle it as best we can.
	i := n - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(r.Int63n(int64(i + 1)))
		swap(i, j)
	}
	for ; i > 0; i-- {
		j := int(r.int31n(int32(i + 1)))
		swap(i, j)
	}
}
