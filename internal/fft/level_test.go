package fft

import (
	"math"
	"testing"

	"gpucnn/internal/cpuid"
	"gpucnn/internal/tensor"
)

// setLevel makes every butterfly stage run the kernel of level l until
// the test ends, skipping the test where the host cannot run it.
func setLevel(t testing.TB, l cpuid.Level) {
	t.Helper()
	if l > cpuid.Host {
		t.Skipf("host runs kernels up to %v, not %v", cpuid.Host, l)
	}
	prev := level
	level = l
	t.Cleanup(func() { level = prev })
}

// forEachLevel runs f as one subtest per stage kernel (Go and AVX2; an
// AVX-512 host runs the AVX2 kernel), each skipped on a host that lacks
// its instruction set.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	for l := cpuid.Go; l <= cpuid.AVX2; l++ {
		t.Run(l.String(), func(t *testing.T) {
			setLevel(t, l)
			f(t)
		})
	}
}

// atGo runs f with every stage on the Go loops, then restores the
// level.
func atGo(f func()) {
	prev := level
	level = cpuid.Go
	defer func() { level = prev }()
	f()
}

func eqBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || a == b }

// diffBins returns the first index where got and want differ in their
// bits, signed zeros counting as equal, or -1.
func diffBins(got, want []complex64) int {
	for i, v := range want {
		if !eqBits(real(got[i]), real(v)) || !eqBits(imag(got[i]), imag(v)) {
			return i
		}
	}
	return -1
}

// diffReals is diffBins for real outputs.
func diffReals(got, want []float32) int {
	for i, v := range want {
		if !eqBits(got[i], v) {
			return i
		}
	}
	return -1
}

// guard is the number of bins past each matrix that the stage tests
// fill with a sentinel and check: a vector tail must not write there.
const guard = 16

// TestStagesMatchGoAtEveryLevel runs difRows and ditRows at every level
// the host has against the Go loops, for n from 2 to 64, every width m
// from 1 to 24 (every tail length of both vector widths, with zero to
// three whole vectors) and every live and need value, and requires the
// same bits, signed zeros counting as equal, and nothing written past
// the matrix.
func TestStagesMatchGoAtEveryLevel(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		r := tensor.NewRNG(17)
		const sentinel = complex64(complex(12345, -6789))
		for n := 2; n <= 64; n *= 2 {
			p := PlanFor(n)
			for m := 1; m <= 24; m++ {
				src := randSignal(r, n*m)
				for k := 1; k <= n; k++ {
					for _, dir := range []string{"dif", "dit"} {
						run := func(x []complex64) {
							if dir == "dif" {
								p.difRows(x, m, k)
							} else {
								p.ditRows(x, p.inverse, m, k)
							}
						}
						got := append(append([]complex64(nil), src...), make([]complex64, guard)...)
						for i := n * m; i < len(got); i++ {
							got[i] = sentinel
						}
						want := append([]complex64(nil), src...)
						run(got[:n*m])
						atGo(func() { run(want) })
						if i := diffBins(got[:n*m], want); i >= 0 {
							t.Fatalf("%s n=%d m=%d live/need=%d: row %d bin %d = %v, Go loops give %v",
								dir, n, m, k, i/m, i%m, got[i], want[i])
						}
						for i := n * m; i < len(got); i++ {
							if got[i] != sentinel {
								t.Fatalf("%s n=%d m=%d live/need=%d: wrote %d bins past the matrix", dir, n, m, k, i-n*m+1)
							}
						}
					}
				}
			}
		}
	})
}

// The per-row half-spectrum path, kept as the oracle for the row pass:
// each pair of image rows packed into one complex row of n bins and run
// through the scalar radix-2 butterflies, the column pass on the Go
// loops.

func perRowDIF(p *Plan, x []complex64, live int) {
	n, tw := p.n, p.forward
	x = x[:n]
	for size := n; size >= 2; size >>= 1 {
		half, step := size>>1, n/size
		lim, full := min(live, half), max(live-half, 0)
		for start := 0; start < n; start += size {
			lo, hi := x[start:start+lim], x[start+half:start+half+lim]
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

func perRowDIT(p *Plan, x []complex64, need int) {
	n, tw := p.n, p.inverse
	x = x[:n]
	for size := 2; size <= n; size <<= 1 {
		half, step := size>>1, n/size
		blockNeed := min(need, size)
		lim, full := min(blockNeed, half), max(blockNeed-half, 0)
		for start := 0; start < n; start += size {
			lo, hi := x[start:start+lim], x[start+half:start+half+lim]
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

func perRowForwardHalf(p *Plan2D, img []float32, h, w int, grid []complex64) {
	n, m, pl := p.n, p.cols, p.plan
	z := make([]complex64, n)
	for r := 0; r < h; r += 2 {
		a := img[r*w : (r+1)*w]
		var b []float32
		if r+1 < h {
			b = img[(r+1)*w : (r+2)*w]
		}
		for c, v := range a {
			z[c] = complex(v, 0)
			if b != nil {
				z[c] = complex(v, b[c])
			}
		}
		perRowDIF(pl, z, w)
		da := grid[r*m : (r+1)*m]
		if b == nil {
			for k := range da {
				da[k] = z[pl.rev[k]]
			}
			continue
		}
		db := grid[(r+1)*m : (r+2)*m]
		da[0], db[0] = complex(real(z[0]), 0), complex(imag(z[0]), 0)
		if n == 1 {
			continue
		}
		hn := n / 2
		zh := z[pl.rev[hn]]
		da[hn], db[hn] = complex(real(zh), 0), complex(imag(zh), 0)
		for k := 1; k < hn; k++ {
			zk, zn := z[pl.rev[k]], z[pl.rev[n-k]]
			zn = complex(real(zn), -imag(zn))
			s, d := zk+zn, zk-zn
			da[k] = complex(real(s)*0.5, imag(s)*0.5)
			db[k] = complex(imag(d)*0.5, -real(d)*0.5)
		}
	}
	atGo(func() { pl.difRows(grid, m, h) })
}

func perRowInverseHalf(p *Plan2D, grid []complex64, out []float32, h, w, offH, offW int) {
	n, m, pl := p.n, p.cols, p.plan
	atGo(func() { pl.ditRows(grid, pl.inverse, m, offH+h) })
	z := make([]complex64, n)
	scale := float32(1) / float32(n*n)
	for r := 0; r < h; r += 2 {
		sa := grid[(offH+r)*m : (offH+r+1)*m]
		sb := sa
		if r+1 < h {
			sb = grid[(offH+r+1)*m : (offH+r+2)*m]
		}
		z[0] = complex(real(sa[0]), real(sb[0]))
		if n > 1 {
			hn := n / 2
			z[pl.rev[hn]] = complex(real(sa[hn]), real(sb[hn]))
			for k := 1; k < hn; k++ {
				a, b := sa[k], sb[k]
				z[pl.rev[k]] = complex(real(a)-imag(b), imag(a)+real(b))
				z[pl.rev[n-k]] = complex(real(a)+imag(b), real(b)-imag(a))
			}
		}
		perRowDIT(pl, z, offW+w)
		for c := 0; c < w; c++ {
			v := z[offW+c]
			out[r*w+c] = real(v) * scale
			if r+1 < h {
				out[(r+1)*w+c] = imag(v) * scale
			}
		}
	}
}

// TestHalfMatchesPerRowPath compares ForwardHalf and InverseHalf, at
// every level the host has, with the per-row path bit for bit (signed
// zeros counting as equal): the forward transform for every image
// extent h×w, and the inverse for every output window size, at two
// offsets each, at n from 1 to 64.
func TestHalfMatchesPerRowPath(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		for n := 1; n <= 64; n *= 2 {
			p := NewPlan2D(n)
			r := tensor.NewRNG(uint64(300 + n))
			scratch := make([]complex64, p.ScratchLen())
			got, want := make([]complex64, p.Bins()), make([]complex64, p.Bins())
			for h := 1; h <= n; h++ {
				for w := 1; w <= n; w++ {
					img := randImage(r, h, w)
					p.ForwardHalf(img, h, w, got, scratch)
					perRowForwardHalf(p, img, h, w, want)
					if i := diffBins(got, want); i >= 0 {
						t.Fatalf("n=%d image %dx%d: bin %d = %v, per-row path gives %v", n, h, w, i, got[i], want[i])
					}
				}
			}
			spec := randSignal(r, p.Bins())
			for oh := 1; oh <= n; oh++ {
				for ow := 1; ow <= n; ow++ {
					for _, off := range [][2]int{{0, 0}, {(oh + 3*ow) % (n - oh + 1), (ow + 5*oh) % (n - ow + 1)}} {
						out, ref := make([]float32, oh*ow), make([]float32, oh*ow)
						copy(got, spec)
						copy(want, spec)
						p.InverseHalf(got, out, oh, ow, off[0], off[1], scratch)
						perRowInverseHalf(p, want, ref, oh, ow, off[0], off[1])
						if i := diffReals(out, ref); i >= 0 {
							t.Fatalf("n=%d window %dx%d at %v: (%d,%d) = %v, per-row path gives %v",
								n, oh, ow, off, i/ow, i%ow, out[i], ref[i])
						}
					}
				}
			}
		}
	})
}
