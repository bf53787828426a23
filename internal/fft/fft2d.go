package fft

import (
	"fmt"
	"sync"
)

// Plan2D performs n×n real-input 2-D transforms over half-spectrum
// grids. The DFT of a real image is Hermitian, X[-u,-v] = conj(X[u,v]),
// so a grid keeps only columns 0..n/2: n rows of n/2+1 bins, row-major,
// the layout of fbfft and cuFFT's R2C transforms. Grid row rev(u)
// holds frequency row u: the forward column pass is decimation in
// frequency and the inverse is decimation in time, so neither runs a
// bit-reversal permutation, and pointwise products of two grids do not
// depend on the order. Convolution pads both extents to the same power
// of two, so only the square case is needed.
type Plan2D struct {
	n, cols int
	plan    *Plan
}

// NewPlan2D builds a 2-D plan of size n×n (n must be a power of two).
func NewPlan2D(n int) *Plan2D {
	return &Plan2D{n: n, cols: n/2 + 1, plan: PlanFor(n)}
}

// plan2DCache holds one immutable *Plan2D per size, sharing the 1-D
// plan cache underneath.
var plan2DCache sync.Map // int -> *Plan2D

// Plan2DFor returns the shared cached 2-D plan for size n×n, building
// it on first use. Safe for concurrent use.
func Plan2DFor(n int) *Plan2D {
	if p, ok := plan2DCache.Load(n); ok {
		return p.(*Plan2D)
	}
	p, _ := plan2DCache.LoadOrStore(n, NewPlan2D(n))
	return p.(*Plan2D)
}

// N returns the per-axis transform size.
func (p *Plan2D) N() int { return p.n }

// Bins returns the length of a half-spectrum grid, n·(n/2+1).
func (p *Plan2D) Bins() int { return p.n * p.cols }

// ForwardHalf transforms the real h×w image img (row-major), zero-padded
// to n×n, into the half-spectrum grid (length Bins()). Every bin is
// written, so an uninitialised arena carve-out is a valid grid. Rows
// are transformed two at a time, packed as the real and imaginary
// parts of one complex row, and only the h image rows are transformed;
// the column pass skips butterflies whose partner rows are padding.
// scratch must hold at least n complex64s.
func (p *Plan2D) ForwardHalf(img []float32, h, w int, grid, scratch []complex64) {
	n, m, pl := p.n, p.cols, p.plan
	p.check("real input", h, w, 0, 0, grid, scratch)
	z := scratch[:n]
	for r := 0; r < h; r += 2 {
		a := img[r*w : (r+1)*w]
		if r+1 == h {
			for c, v := range a {
				z[c] = complex(v, 0)
			}
			pl.dif(z, w)
			pl.splitOne(z, grid[r*m:(r+1)*m])
			continue
		}
		b := img[(r+1)*w : (r+2)*w]
		for c, v := range a {
			z[c] = complex(v, b[c])
		}
		pl.dif(z, w)
		pl.splitPair(z, grid[r*m:(r+1)*m], grid[(r+1)*m:(r+2)*m])
	}
	pl.difRows(grid, m, h)
}

// InverseHalf inverse-transforms grid in place, destroying it, and
// writes the real h×w window whose top-left corner is at row offH,
// column offW, scaled by 1/n², into out (row-major h×w). Only the
// output rows and columns up to the window's far edge are computed.
// scratch must hold at least n complex64s.
func (p *Plan2D) InverseHalf(grid []complex64, out []float32, h, w, offH, offW int, scratch []complex64) {
	n, m, pl := p.n, p.cols, p.plan
	p.check("output window", h, w, offH, offW, grid, scratch)
	pl.ditRows(grid, m, offH+h)
	z := scratch[:n]
	scale := float32(1) / float32(n*n)
	need := offW + w
	for r := 0; r < h; r += 2 {
		// A lone last row is paired with itself: the real part of
		// a + i·a is still a.
		ga := grid[(offH+r)*m : (offH+r+1)*m]
		gb := ga
		if r+1 < h {
			gb = grid[(offH+r+1)*m : (offH+r+2)*m]
		}
		pl.mergePair(z, ga, gb)
		pl.dit(z, pl.inverse, need)
		dst := out[r*w : (r+1)*w]
		if r+1 == h {
			for c := range dst {
				dst[c] = real(z[offW+c]) * scale
			}
			continue
		}
		dst2 := out[(r+1)*w : (r+2)*w]
		for c := range dst {
			v := z[offW+c]
			dst[c], dst2[c] = real(v)*scale, imag(v)*scale
		}
	}
}

func (p *Plan2D) check(what string, h, w, offH, offW int, grid, scratch []complex64) {
	if h < 1 || w < 1 || offH < 0 || offW < 0 || offH+h > p.n || offW+w > p.n {
		panic(fmt.Sprintf("fft: %s %dx%d at (%d,%d) exceeds plan size %d", what, h, w, offH, offW, p.n))
	}
	if len(grid) != p.Bins() {
		panic(fmt.Sprintf("fft: grid length %d does not match %d×%d", len(grid), p.n, p.cols))
	}
	if len(scratch) < p.n {
		panic(fmt.Sprintf("fft: scratch length %d is below plan size %d", len(scratch), p.n))
	}
}

// splitPair unpacks y, the bit-reversed spectrum of z = a + i·b for
// real rows a and b, into their half spectra: A[k] = (Z[k] +
// conj(Z[n-k]))/2 and B[k] = (Z[k] - conj(Z[n-k]))/2i.
func (p *Plan) splitPair(y, da, db []complex64) {
	n, rev := p.n, p.rev
	da[0], db[0] = complex(real(y[0]), 0), complex(imag(y[0]), 0)
	if n == 1 {
		return
	}
	h := n / 2
	zh := y[rev[h]]
	da[h], db[h] = complex(real(zh), 0), complex(imag(zh), 0)
	for k := 1; k < h; k++ {
		zk, zn := y[rev[k]], y[rev[n-k]]
		zn = complex(real(zn), -imag(zn))
		s, d := zk+zn, zk-zn
		da[k] = complex(real(s)*0.5, imag(s)*0.5)
		db[k] = complex(imag(d)*0.5, -real(d)*0.5)
	}
}

// splitOne copies the half spectrum of a single real row out of its
// bit-reversed spectrum y.
func (p *Plan) splitOne(y, da []complex64) {
	for k := range da {
		da[k] = y[p.rev[k]]
	}
}

// mergePair builds in z the bit-reversed full spectrum of a + i·b from
// the half spectra A and B of real rows a and b, using Z[k] = A[k] +
// i·B[k] and Z[n-k] = conj(A[k]) + i·conj(B[k]). The DC and Nyquist
// bins of a real row are real, so their rounding residue is dropped.
func (p *Plan) mergePair(z, sa, sb []complex64) {
	n, rev := p.n, p.rev
	z[0] = complex(real(sa[0]), real(sb[0]))
	if n == 1 {
		return
	}
	h := n / 2
	z[rev[h]] = complex(real(sa[h]), real(sb[h]))
	for k := 1; k < h; k++ {
		a, b := sa[k], sb[k]
		z[rev[k]] = complex(real(a)-imag(b), imag(a)+real(b))
		z[rev[n-k]] = complex(real(a)+imag(b), real(b)-imag(a))
	}
}

// difRows runs dif over the n rows of x, each m bins wide, as the
// elements of one length-n column transform, so every butterfly is a
// contiguous loop over two whole rows. Rows from live on are taken as
// zero and never read. The 1-D row transforms keep the scalar dif and
// dit: run through these loops at m = 1 they make a convolution pass
// about a tenth slower.
func (p *Plan) difRows(x []complex64, m, live int) {
	n, tw := p.n, p.forward
	for size := n; size >= 2; size >>= 1 {
		half, step := size>>1, n/size
		lim, full := min(live, half), max(live-half, 0)
		for start := 0; start < n; start += size {
			for i := 0; i < lim; i++ {
				w := tw[i*step]
				lo := x[(start+i)*m : (start+i+1)*m]
				hi := x[(start+half+i)*m : (start+half+i+1)*m]
				hi = hi[:len(lo)]
				switch {
				case i == 0 && i < full:
					for c, a := range lo {
						b := hi[c]
						lo[c], hi[c] = a+b, a-b
					}
				case i == 0:
					copy(hi, lo)
				case i < full:
					for c, a := range lo {
						b := hi[c]
						lo[c], hi[c] = a+b, mul(a-b, w)
					}
				default:
					for c, a := range lo {
						hi[c] = mul(a, w)
					}
				}
			}
		}
		live = lim
	}
}

// ditRows runs dit over the n rows of x, each m bins wide, held in
// bit-reversed row order, and computes only output rows [0, need).
func (p *Plan) ditRows(x []complex64, m, need int) {
	n, tw := p.n, p.inverse
	for size := 2; size <= n; size <<= 1 {
		half, step := size>>1, n/size
		blockNeed := min(need, size)
		lim, full := min(blockNeed, half), max(blockNeed-half, 0)
		for start := 0; start < n; start += size {
			for i := 0; i < lim; i++ {
				w := tw[i*step]
				lo := x[(start+i)*m : (start+i+1)*m]
				hi := x[(start+half+i)*m : (start+half+i+1)*m]
				hi = hi[:len(lo)]
				switch {
				case i == 0 && i < full:
					for c, a := range lo {
						b := hi[c]
						lo[c], hi[c] = a+b, a-b
					}
				case i == 0:
					for c := range lo {
						lo[c] += hi[c]
					}
				case i < full:
					for c, a := range lo {
						b := mul(hi[c], w)
						lo[c], hi[c] = a+b, a-b
					}
				default:
					for c := range lo {
						lo[c] += mul(hi[c], w)
					}
				}
			}
		}
	}
}

// FLOPs1D returns the approximate real-flop cost of one length-n
// radix-2 transform: 5 n log2(n) (the standard split-radix-free count).
func FLOPs1D(n int) float64 {
	if n <= 1 {
		return 0
	}
	log2 := 0
	for m := n; m > 1; m >>= 1 {
		log2++
	}
	return 5 * float64(n) * float64(log2)
}

// FLOPs2D returns the approximate real-flop cost of one n×n transform
// (2n row/column transforms of length n).
func FLOPs2D(n int) float64 {
	return 2 * float64(n) * FLOPs1D(n)
}
