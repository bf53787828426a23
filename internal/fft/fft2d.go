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

// ScratchLen returns the scratch length ForwardHalf and InverseHalf
// need, n·⌈n/2⌉ complex64s: the row pass transforms every pair of image
// rows as one column of an n-row matrix.
func (p *Plan2D) ScratchLen() int { return p.n * ((p.n + 1) / 2) }

// ForwardHalf transforms the real h×w image img (row-major), zero-padded
// to n×n, into the half-spectrum grid (length Bins()). Every bin is
// written, so an uninitialised arena carve-out is a valid grid. Rows
// are transformed two at a time, packed as the real and imaginary
// parts of one complex column of scratch, and only the h image rows are
// transformed; both passes skip butterflies whose partners are
// padding. scratch must hold at least ScratchLen() complex64s.
func (p *Plan2D) ForwardHalf(img []float32, h, w int, grid, scratch []complex64) {
	n, m, pl := p.n, p.cols, p.plan
	p.check("real input", h, w, 0, 0, grid, scratch)
	q := (h + 1) / 2
	z := scratch[:n*q]
	for r := 0; r < h; r += 2 {
		a, j := img[r*w:(r+1)*w], r/2
		if r+1 == h {
			for c, v := range a {
				z[c*q+j] = complex(v, 0)
			}
			continue
		}
		b := img[(r+1)*w : (r+2)*w]
		for c, v := range a {
			z[c*q+j] = complex(v, b[c])
		}
	}
	pl.difRows(z, q, w)
	pl.splitPairs(z, q, grid[:h*m], m)
	pl.difRows(grid, m, h)
}

// InverseHalf inverse-transforms grid in place, destroying it, and
// writes the real h×w window whose top-left corner is at row offH,
// column offW, scaled by 1/n², into out (row-major h×w). Only the
// output rows and columns up to the window's far edge are computed.
// scratch must hold at least ScratchLen() complex64s.
func (p *Plan2D) InverseHalf(grid []complex64, out []float32, h, w, offH, offW int, scratch []complex64) {
	n, m, pl := p.n, p.cols, p.plan
	p.check("output window", h, w, offH, offW, grid, scratch)
	pl.ditRows(grid, pl.inverse, m, offH+h)
	q := (h + 1) / 2
	z := scratch[:n*q]
	pl.mergePairs(z, q, grid[offH*m:(offH+h)*m], m)
	pl.ditRows(z, pl.inverse, q, offW+w)
	scale := float32(1) / float32(n*n)
	for r := 0; r < h; r += 2 {
		dst, j := out[r*w:(r+1)*w], r/2
		if r+1 == h {
			for c := range dst {
				dst[c] = real(z[(offW+c)*q+j]) * scale
			}
			continue
		}
		dst2 := out[(r+1)*w : (r+2)*w]
		for c := range dst {
			v := z[(offW+c)*q+j]
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
	if len(scratch) < p.ScratchLen() {
		panic(fmt.Sprintf("fft: scratch length %d is below %d", len(scratch), p.ScratchLen()))
	}
}

// splitPairs unpacks the q columns of y, the bit-reversed spectra of
// the packed rows z = a + i·b, into the half spectra of the rows of
// grid, m bins each, two rows per column: A[k] = (Z[k] + conj(Z[n-k]))/2
// and B[k] = (Z[k] - conj(Z[n-k]))/2i. A lone last row of grid (an odd
// row count) was packed with zero imaginary parts, so its half spectrum
// is its column's.
func (p *Plan) splitPairs(y []complex64, q int, grid []complex64, m int) {
	n, rev, h := p.n, p.rev, len(grid)/m
	for j := 0; 2*j+1 < h; j++ {
		da, db := grid[2*j*m:(2*j+1)*m], grid[(2*j+1)*m:(2*j+2)*m]
		da[0], db[0] = complex(real(y[j]), 0), complex(imag(y[j]), 0)
		if n == 1 {
			continue
		}
		hn := n / 2
		zh := y[rev[hn]*q+j]
		da[hn], db[hn] = complex(real(zh), 0), complex(imag(zh), 0)
		for k := 1; k < hn; k++ {
			zk, zn := y[rev[k]*q+j], y[rev[n-k]*q+j]
			zn = complex(real(zn), -imag(zn))
			s, d := zk+zn, zk-zn
			da[k] = complex(real(s)*0.5, imag(s)*0.5)
			db[k] = complex(imag(d)*0.5, -real(d)*0.5)
		}
	}
	if h%2 == 1 {
		da := grid[(h-1)*m:]
		for k := range da {
			da[k] = y[rev[k]*q+h/2]
		}
	}
}

// mergePairs builds in the q columns of z the bit-reversed full
// spectra of a + i·b from the half spectra A and B of consecutive rows
// a and b of grid, m bins each, using Z[k] = A[k] + i·B[k] and Z[n-k] =
// conj(A[k]) + i·conj(B[k]). A lone last row of grid is paired with
// itself: the real part of a + i·a is still a. The DC and Nyquist bins
// of a real row are real, so their rounding residue is dropped.
func (p *Plan) mergePairs(z []complex64, q int, grid []complex64, m int) {
	n, rev, h := p.n, p.rev, len(grid)/m
	for j := 0; j < q; j++ {
		sa := grid[2*j*m : (2*j+1)*m]
		sb := sa
		if 2*j+1 < h {
			sb = grid[(2*j+1)*m : (2*j+2)*m]
		}
		z[j] = complex(real(sa[0]), real(sb[0]))
		if n == 1 {
			continue
		}
		hn := n / 2
		z[rev[hn]*q+j] = complex(real(sa[hn]), real(sb[hn]))
		for k := 1; k < hn; k++ {
			a, b := sa[k], sb[k]
			z[rev[k]*q+j] = complex(real(a)-imag(b), imag(a)+real(b))
			z[rev[n-k]*q+j] = complex(real(a)+imag(b), real(b)-imag(a))
		}
	}
}

// difRows runs the radix-2 decimation-in-frequency butterflies down the
// columns of x, n rows of m bins in natural row order, leaving the rows
// in bit-reversed order: one length-n transform per column, each stage
// one difStage over whole rows. Both passes of ForwardHalf run here,
// the row pass with the packed row pairs as columns. Rows from live on
// are taken as zero and never read; butterflies whose partner is such a
// zero only scale their input.
func (p *Plan) difRows(x []complex64, m, live int) {
	n := p.n
	_ = x[n*m-1]
	for half := n / 2; half >= 1; half >>= 1 {
		lim, full := min(live, half), max(live-half, 0)
		difStage(x, p.forward, m, half, n/(2*half), lim, full)
		live = lim
	}
}

// ditRows runs the radix-2 decimation-in-time butterflies with twiddles
// tw down the columns of x, n rows of m bins held in bit-reversed row
// order, leaving natural order, one ditStage per stage. Only output
// rows [0, need) are computed; butterflies that feed nothing but later
// rows are skipped, and those rows are left undefined.
func (p *Plan) ditRows(x, tw []complex64, m, need int) {
	n := p.n
	_ = x[n*m-1]
	for half := 1; half < n; half <<= 1 {
		// Each block of 2·half rows needs its first min(need, 2·half)
		// outputs, which take the first lim rows of both halves.
		blockNeed := min(need, 2*half)
		ditStage(x, tw, m, half, n/(2*half), min(blockNeed, half), max(blockNeed-half, 0))
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
