// Package fft implements the Fast Fourier Transform machinery behind the
// FFT-based convolution strategy (fbfft, Theano-fft). It provides an
// iterative radix-2 decimation-in-time transform, a decimation-in-
// frequency variant (fbfft's decimateInFrequency kernel uses DIF),
// half-spectrum real 2-D transforms, and a naive DFT used as the
// correctness oracle in tests.
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
// plan length) using iterative radix-2 decimation in time.
func (p *Plan) Forward(x []complex64) {
	p.checkLen(x)
	p.permute(x)
	p.dit(x, p.forward, p.n)
}

// Inverse performs an in-place inverse DFT including the 1/n scaling.
func (p *Plan) Inverse(x []complex64) {
	p.checkLen(x)
	p.permute(x)
	p.dit(x, p.inverse, p.n)
	inv := complex(float32(1)/float32(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// ForwardDIF performs an in-place forward DFT using decimation in
// frequency, leaving the output in natural order. Numerically it
// matches Forward. The DIF stages it runs are the schedule of fbfft's
// decimateInFrequency kernel, and the ones the half-spectrum 2-D
// transforms use without the final permutation.
func (p *Plan) ForwardDIF(x []complex64) {
	p.checkLen(x)
	p.dif(x, p.n)
	p.permute(x)
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

// dit runs the radix-2 decimation-in-time butterflies with twiddles tw
// over x held in bit-reversed order, leaving natural order. Only the
// outputs x[:need] are computed; butterflies that feed nothing but
// later entries are skipped, and those entries are left undefined.
func (p *Plan) dit(x, tw []complex64, need int) {
	n := p.n
	x = x[:n]
	for size := 2; size <= n; size <<= 1 {
		half, step := size>>1, n/size
		// Each size-block needs its first min(need, size) outputs,
		// which take the first lim entries of both half-blocks.
		blockNeed := min(need, size)
		lim, full := min(blockNeed, half), max(blockNeed-half, 0)
		for start := 0; start < n; start += size {
			lo, hi := x[start:start+lim], x[start+half:start+half+lim]
			// The first twiddle is 1.
			if full > 0 {
				a, b := lo[0], hi[0]
				lo[0], hi[0] = a+b, a-b
			} else if lim > 0 {
				lo[0] += hi[0]
			}
			for i := 1; i < full; i++ {
				a, b := lo[i], mul(hi[i], tw[i*step])
				lo[i], hi[i] = a+b, a-b
			}
			for i := max(full, 1); i < lim; i++ {
				lo[i] += mul(hi[i], tw[i*step])
			}
		}
	}
}

// dif runs the radix-2 decimation-in-frequency butterflies over x in
// natural order, leaving bit-reversed order. Entries from x[live] on
// are taken as zero and never read, so a caller need not clear them;
// butterflies whose partner is such a zero only scale their input.
func (p *Plan) dif(x []complex64, live int) {
	n, tw := p.n, p.forward
	x = x[:n]
	for size := n; size >= 2; size >>= 1 {
		half, step := size>>1, n/size
		lim, full := min(live, half), max(live-half, 0)
		for start := 0; start < n; start += size {
			lo, hi := x[start:start+lim], x[start+half:start+half+lim]
			// The first twiddle is 1.
			if full > 0 {
				a, b := lo[0], hi[0]
				lo[0], hi[0] = a+b, a-b
			} else if lim > 0 {
				hi[0] = lo[0]
			}
			for i := 1; i < full; i++ {
				a, b := lo[i], hi[i]
				lo[i], hi[i] = a+b, mul(a-b, tw[i*step])
			}
			for i := max(full, 1); i < lim; i++ {
				hi[i] = mul(lo[i], tw[i*step])
			}
		}
		live = lim
	}
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
