// Package fft implements the Fast Fourier Transform machinery behind the
// FFT-based convolution strategy (fbfft, Theano-fft): half-spectrum
// real 2-D transforms whose row and column passes are both radix-2
// stages over whole rows of a matrix (decimation in frequency forward,
// as fbfft's decimateInFrequency kernel, and decimation in time
// inverse), a 1-D forward transform, and a naive DFT used as the
// correctness oracle in tests. Each stage runs one AVX2 or Go kernel,
// picked once by CPUID (internal/cpuid); both round every bin alike, so
// their outputs are bit-identical.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// NextPow2 returns the smallest power of two >= n (and >= 1). FFT-based
// convolution pads spatial extents to this size, which is the source of
// the dramatic memory-usage fluctuations the paper reports for fbfft.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// twiddles[k] = exp(-2πi k / n) for k in [0, n/2).
func twiddles(n int, inverse bool) []complex64 {
	tw := make([]complex64, n/2)
	sign := -2 * math.Pi / float64(n)
	if inverse {
		sign = -sign
	}
	for k := range tw {
		s, c := math.Sincos(sign * float64(k))
		tw[k] = complex(float32(c), float32(s))
	}
	return tw
}

// Plan caches twiddle factors and the bit-reversal permutation for a
// fixed power-of-two length, so repeated transforms (one per image row,
// per channel, per batch element) don't recompute trigonometry.
type Plan struct {
	n       int
	forward []complex64
	inverse []complex64
	rev     []int
}

// NewPlan builds a transform plan for length n, which must be a power
// of two.
func NewPlan(n int) *Plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: plan length %d is not a power of two", n))
	}
	p := &Plan{n: n, forward: twiddles(n, false), inverse: twiddles(n, true)}
	p.rev = make([]int, n)
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse(uint(i)) >> shift)
	}
	return p
}

// N returns the plan's transform length.
func (p *Plan) N() int { return p.n }

// planCache holds one immutable *Plan per transform size. Plans are
// read-only after construction, so a cached plan is safe to share
// across goroutines; under a concurrent first-use race sync.Map keeps
// exactly one winner.
var planCache sync.Map // int -> *Plan

// PlanFor returns the shared cached plan for length n (a power of two),
// building it on first use. Convolution engines transform thousands of
// rows per pass at one or two sizes; caching makes the twiddle tables
// and bit-reversal permutation a one-time cost per size instead of a
// per-call one.
func PlanFor(n int) *Plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p, _ := planCache.LoadOrStore(n, NewPlan(n))
	return p.(*Plan)
}

// Forward performs an in-place forward DFT of x (length must equal the
// plan length): the bit-reversal permutation, then the radix-2
// decimation-in-time butterflies as ditRows over one column.
func (p *Plan) Forward(x []complex64) {
	p.checkLen(x)
	p.permute(x)
	p.ditRows(x, p.forward, 1, p.n)
}

func (p *Plan) checkLen(x []complex64) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", len(x), p.n))
	}
}

// permute applies the bit-reversal permutation in place.
func (p *Plan) permute(x []complex64) {
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// mul returns a·w in float32 arithmetic. Go evaluates a complex64
// product by widening both factors to complex128 and rounding back,
// which makes a butterfly about three times as slow.
func mul(a, w complex64) complex64 {
	ar, ai, wr, wi := real(a), imag(a), real(w), imag(w)
	return complex(ar*wr-ai*wi, ar*wi+ai*wr)
}

// DFTNaive computes the O(n²) discrete Fourier transform, used as the
// oracle in tests. inverse selects the inverse transform with 1/n
// scaling.
func DFTNaive(x []complex64, inverse bool) []complex64 {
	n := len(x)
	out := make([]complex64, n)
	sign := -2 * math.Pi / float64(n)
	if inverse {
		sign = -sign
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			s, c := math.Sincos(sign * float64(k) * float64(t))
			acc += complex128(x[t]) * complex(c, s)
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = complex64(acc)
	}
	return out
}
