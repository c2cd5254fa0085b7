package uam

// lazySource is math/rand.NewSource(seed)'s stream, seeded lazily.
//
// math/rand's source is Mitchell and Reeds' additive lagged-Fibonacci
// generator. Seeding it fills all 607 state words up front, which costs
// 1,841 Park–Miller steps and a 4.9 KB vector, even though a typical
// task's generator draws only a handful of numbers. lazySource returns
// the same Int63 and Uint64 streams but computes each seeded word only
// when a draw first reads it, so setup cost is proportional to the draws
// actually made. Unrolling math/rand's feed/tap indices (feed starts at
// 334, tap at 0) gives draw k, counted from 1, as
//
//	y_k  = F(k) + T(k)  (mod 2⁶⁴)
//	F(k) = y_{k−607} if k > 607, else seeded word (334−k) mod 607
//	T(k) = y_{k−273} if k > 273, else seeded word 607−k
//
// and seeded word i as (x_{3i+21}<<40 ^ x_{3i+22}<<20 ^ x_{3i+23}) ^
// rngCooked[i], where x_n = x₀·48271ⁿ mod (2³¹−1) is the Park–Miller
// chain from the normalized seed x₀. The oracle test in source_test.go
// holds the stream to math/rand's, draw for draw.
type lazySource struct {
	x0   uint64          // normalized seed: x₀ of the Park–Miller chain
	n    int             // draws so far
	head [headLen]uint64 // y_1..y_n while n ≤ headLen
	ring []uint64        // once n > headLen: y_k at ring[k%rngLen], exactly rngLen words
}

const (
	rngLen   = 607           // long lag (math/rand's rngLen)
	rngTap   = 273           // short lag (math/rand's rngTap)
	rngMask  = 1<<63 - 1     // Int63 keeps the low 63 bits
	int32max = 1<<31 - 1     // Park–Miller modulus
	headLen  = 16            // draws kept inline before the ring is allocated
	pmSteps  = 3*rngLen + 21 // seeded words read x_21..x_1841 of the chain
	pmFactor = 48271         // Park–Miller multiplier (math/rand's seedrand)
)

// pmPow[n] is 48271ⁿ mod (2³¹−1), so x_n = x₀·pmPow[n] mod (2³¹−1)
// without stepping the chain. Both factors are below 2³¹, so the product
// fits in a uint64.
var pmPow = func() (p [pmSteps]uint64) {
	p[0] = 1
	for n := 1; n < pmSteps; n++ {
		p[n] = p[n-1] * pmFactor % int32max
	}
	return p
}()

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source. It normalizes the seed exactly as
// math/rand's source does and restarts the stream.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n = uint64(seed), 0
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64, so rand.New draws full 64-bit values
// from it just as it does from math/rand's own source.
func (s *lazySource) Uint64() uint64 {
	s.n++
	k := s.n
	var f, t uint64
	if k > rngLen {
		f = s.drawn(k - rngLen)
	} else {
		f = s.seededWord((rngLen - rngTap - k + rngLen) % rngLen)
	}
	if k > rngTap {
		t = s.drawn(k - rngTap)
	} else {
		t = s.seededWord(rngLen - k)
	}
	y := f + t
	if s.ring == nil {
		if k <= headLen {
			s.head[k-1] = y
			return y
		}
		s.ring = make([]uint64, rngLen)
		copy(s.ring[1:], s.head[:])
	}
	s.ring[k%rngLen] = y
	return y
}

// drawn returns y_j for an earlier draw j ≥ k−607. A lag reads a draw
// rather than a seeded word only once k > 273 > headLen, so any j past
// the inline head is read from the ring.
func (s *lazySource) drawn(j int) uint64 {
	if s.ring == nil {
		return s.head[j-1]
	}
	return s.ring[j%rngLen]
}

// seededWord returns word i of math/rand's freshly seeded state vector.
func (s *lazySource) seededWord(i int) uint64 {
	n := 3*i + 21
	return s.pm(n)<<40 ^ s.pm(n+1)<<20 ^ s.pm(n+2) ^ uint64(rngCooked[i])
}

// pm returns x_n, the n-th Park–Miller output after the seed.
func (s *lazySource) pm(n int) uint64 { return s.x0 * pmPow[n] % int32max }
