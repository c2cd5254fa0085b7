package report

import (
	"math"
	"math/bits"
	"strconv"
)

// fixedPow10 holds 10^p for the precisions formatFixed computes itself.
var fixedPow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// formatFixed returns strconv.FormatFloat(v, 'f', prec, 64), byte for
// byte. With an explicit precision strconv formats 'f' through its
// arbitrary-precision decimal path; this computes the same correctly
// rounded digits from the float's bits instead. v is m·2^k with an
// integer m < 2^53, so v·10^prec rounded half to even is (m·10^prec)
// shifted right by −k, exactly, in 128-bit arithmetic. It defers to
// strconv for NaN, infinities, magnitudes from 2^52 up and precisions
// past 9.
func formatFixed(v float64, prec int) string {
	b := math.Float64bits(v)
	e := int(b >> 52 & 0x7ff)
	m := b & (1<<52 - 1)
	if e == 0x7ff || prec < 0 || prec >= len(fixedPow10) {
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	if e == 0 {
		e = 1 // subnormal: no implicit bit
	} else {
		m |= 1 << 52
	}
	k := e - 1075 // v = ±m·2^k
	if k >= 0 {
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	p10 := fixedPow10[prec]
	hi, lo := bits.Mul64(m, p10)
	n, ok := roundShift(hi, lo, uint(-k))
	if !ok {
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	var buf [48]byte
	out := buf[:0]
	if b>>63 != 0 {
		out = append(out, '-')
	}
	out = strconv.AppendUint(out, n/p10, 10)
	if prec > 0 {
		out = append(out, '.')
		frac := n % p10
		start := len(out)
		out = append(out, "000000000"[:prec]...)
		for i := len(out) - 1; i >= start; i-- {
			out[i] = byte('0' + frac%10)
			frac /= 10
		}
	}
	return string(out)
}

// roundShift returns (hi:lo) / 2^s rounded half to even, for 1 ≤ s and
// hi:lo < 2^127. ok is false when the quotient reaches 2^62.
func roundShift(hi, lo uint64, s uint) (q uint64, ok bool) {
	// r is the remainder hi:lo mod 2^s and h half of 2^s, both as
	// 128-bit pairs.
	var rhi, rlo, hhi, hlo uint64
	switch {
	case s >= 128:
		return 0, true // below half of 2^s
	case s >= 64:
		q = hi >> (s - 64)
		rhi, rlo = hi&(1<<(s-64)-1), lo
		if s == 64 {
			hlo = 1 << 63
		} else {
			hhi = 1 << (s - 65)
		}
	default:
		if hi>>s != 0 {
			return 0, false
		}
		q = hi<<(64-s) | lo>>s
		rlo = lo & (1<<s - 1)
		hlo = 1 << (s - 1)
	}
	if rhi > hhi || rhi == hhi && (rlo > hlo || rlo == hlo && q&1 == 1) {
		q++
	}
	return q, q < 1<<62
}
