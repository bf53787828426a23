package fft

import (
	"fmt"
	"math"
	"testing"

	"gpucnn/internal/tensor"
)

// Forward transforms the complex n×n grid x (row-major) in place, rows
// then columns. It is the full-grid oracle the half-spectrum transforms
// are checked against.
func (p *Plan2D) Forward(x []complex64) { p.apply(x, (*Plan).Forward) }

// Inverse inverse-transforms x in place, including full 1/n² scaling.
func (p *Plan2D) Inverse(x []complex64) { p.apply(x, (*Plan).Inverse) }

func (p *Plan2D) apply(x []complex64, f func(*Plan, []complex64)) {
	n := p.n
	if len(x) != n*n {
		panic(fmt.Sprintf("fft: 2-D input length %d does not match %d×%d", len(x), n, n))
	}
	for r := 0; r < n; r++ {
		f(p.plan, x[r*n:(r+1)*n])
	}
	col := make([]complex64, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			col[r] = x[r*n+c]
		}
		f(p.plan, col)
		for r := 0; r < n; r++ {
			x[r*n+c] = col[r]
		}
	}
}

func randImage(r *tensor.RNG, h, w int) []float32 {
	img := make([]float32, h*w)
	for i := range img {
		img[i] = 2*r.Float32() - 1
	}
	return img
}

// extentsAround returns the image extents that exercise every pruning
// case of an n-point transform: odd and even, and on both sides of n/2,
// where the first column stage switches from scaling to full butterflies.
func extentsAround(n int) []int {
	var out []int
	seen := map[int]bool{}
	for _, v := range []int{1, 2, 3, n/2 - 1, n / 2, n/2 + 1, n - 1, n} {
		if v >= 1 && v <= n && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestForwardHalfMatchesComplexOracle compares the half-spectrum grid
// with the full complex 2-D transform of the zero-padded image, whose
// frequency rows the grid holds in bit-reversed order.
func TestForwardHalfMatchesComplexOracle(t *testing.T) {
	for n := 1; n <= 128; n *= 2 {
		p := NewPlan2D(n)
		m := n/2 + 1
		r := tensor.NewRNG(uint64(n))
		scratch := make([]complex64, n)
		grid := make([]complex64, p.Bins())
		for _, h := range extentsAround(n) {
			for _, w := range []int{1, (n + 1) / 2, n} {
				img := randImage(r, h, w)
				full := make([]complex64, n*n)
				for i := 0; i < h; i++ {
					for j := 0; j < w; j++ {
						full[i*n+j] = complex(img[i*w+j], 0)
					}
				}
				p.Forward(full)
				p.ForwardHalf(img, h, w, grid, scratch)
				tol := 1e-5 * float64(h*w)
				for u := 0; u < n; u++ {
					got := grid[p.plan.rev[u]*m:][:m]
					if d := cdist(got, full[u*n:u*n+m]); d > tol {
						t.Fatalf("n=%d h=%d w=%d: frequency row %d differs from oracle by %g", n, h, w, u, d)
					}
				}
			}
		}
	}
}

// checkRoundTrip runs img (h×w, zero-padded to n×n) through ForwardHalf
// and InverseHalf with the given output window, and compares the window
// with the padded image.
func checkRoundTrip(t *testing.T, p *Plan2D, img []float32, h, w, oh, ow, offH, offW int) {
	t.Helper()
	grid := make([]complex64, p.Bins())
	scratch := make([]complex64, p.N())
	p.ForwardHalf(img, h, w, grid, scratch)
	out := make([]float32, oh*ow)
	p.InverseHalf(grid, out, oh, ow, offH, offW, scratch)
	for i := 0; i < oh; i++ {
		for j := 0; j < ow; j++ {
			var want float32
			if r, c := i+offH, j+offW; r < h && c < w {
				want = img[r*w+c]
			}
			if d := math.Abs(float64(out[i*ow+j] - want)); d > 1e-4 {
				t.Fatalf("n=%d image %dx%d window %dx%d at (%d,%d): (%d,%d) = %v, want %v",
					p.N(), h, w, oh, ow, offH, offW, i, j, out[i*ow+j], want)
			}
		}
	}
}

// TestHalfRoundTripWithCrop inverts forward transforms through output
// windows of every parity and offset, including windows that reach
// into the zero padding and single-row windows.
func TestHalfRoundTripWithCrop(t *testing.T) {
	for n := 1; n <= 128; n *= 2 {
		p := NewPlan2D(n)
		r := tensor.NewRNG(uint64(1000 + n))
		for _, h := range extentsAround(n) {
			w := 1 + r.Intn(n)
			img := randImage(r, h, w)
			checkRoundTrip(t, p, img, h, w, n, n, 0, 0)
			for _, oh := range extentsAround(n) {
				ow := 1 + r.Intn(n)
				checkRoundTrip(t, p, img, h, w, oh, ow, r.Intn(n-oh+1), r.Intn(n-ow+1))
			}
		}
	}
}

func TestHalfRejectsOutOfRangeWindow(t *testing.T) {
	p := NewPlan2D(8)
	grid := make([]complex64, p.Bins())
	scratch := make([]complex64, 8)
	for name, f := range map[string]func(){
		"image too tall":  func() { p.ForwardHalf(make([]float32, 9), 9, 1, grid, scratch) },
		"window past end": func() { p.InverseHalf(grid, make([]float32, 4), 2, 2, 7, 0, scratch) },
		"short scratch":   func() { p.ForwardHalf(make([]float32, 1), 1, 1, grid, scratch[:4]) },
		"full-size grid":  func() { p.ForwardHalf(make([]float32, 1), 1, 1, make([]complex64, 64), scratch) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
