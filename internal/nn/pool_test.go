package nn

import (
	"fmt"
	"math"
	"testing"

	"gpucnn/internal/tensor"
)

// poolRef is the generic pooling loop the layer replaced, kept as the
// oracle: every window walked in row-major order with both bounds
// tested per element, max keeping the first element and each later
// one that is strictly greater, average dividing by the valid count.
// It returns the pooled output and, for the output gradient dy, the
// input gradient.
func poolRef(l *Pool, x, dy []float32, n, c, h, w int) (y, dx []float32) {
	oh, ow := l.outHW(h), l.outHW(w)
	y, dx = make([]float32, n*c*oh*ow), make([]float32, n*c*h*w)
	for j := 0; j < n*c; j++ {
		src, dst, g := x[j*h*w:], y[j*oh*ow:], dy[j*oh*ow:]
		grad := dx[j*h*w:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float32
				best, count, first := -1, 0, true
				for ky := 0; ky < l.Window; ky++ {
					iy := oy*l.Stride + ky - l.Pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < l.Window; kx++ {
						ix := ox*l.Stride + kx - l.Pad
						if ix < 0 || ix >= w {
							continue
						}
						v := src[iy*w+ix]
						count++
						if l.Mode == AvgPool {
							acc += v
						} else if first || v > acc {
							acc, best, first = v, iy*w+ix, false
						}
					}
				}
				if l.Mode == AvgPool && count > 0 {
					acc /= float32(count)
				}
				dst[oy*ow+ox] = acc
				gv := g[oy*ow+ox]
				if l.Mode == MaxPool {
					if best >= 0 {
						grad[best] += gv
					}
					continue
				}
				if count == 0 {
					continue
				}
				share := gv / float32(count)
				for ky := 0; ky < l.Window; ky++ {
					iy := oy*l.Stride + ky - l.Pad
					for kx := 0; kx < l.Window; kx++ {
						ix := ox*l.Stride + kx - l.Pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							grad[iy*w+ix] += share
						}
					}
				}
			}
		}
	}
	return y, dx
}

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkPoolAgainstRef runs l forward and backward on x (n×c×h×w) and
// dy, twice so the second pass runs over held buffers holding the
// first pass's values, and requires the output and the input gradient
// to match poolRef bit for bit.
func checkPoolAgainstRef(t *testing.T, name string, l *Pool, x *tensor.Tensor, dy []float32) {
	t.Helper()
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	wantY, wantDX := poolRef(l, x.Data, dy, n, c, h, w)
	ctx := NewContext(nil, true)
	for pass := 0; pass < 2; pass++ {
		y := l.Forward(ctx, NewValue(x))
		if i, ok := sameBits(y.Data.Data, wantY); !ok {
			t.Fatalf("%s pass %d: output differs from the reference at %d: %v, want %v",
				name, pass, i, y.Data.Data[i], wantY[i])
		}
		dyT := tensor.FromSlice(append([]float32(nil), dy...), y.Shape...)
		dx := l.Backward(ctx, NewValue(dyT))
		if i, ok := sameBits(dx.Data.Data, wantDX); !ok {
			t.Fatalf("%s pass %d: input gradient differs from the reference at %d: %v, want %v",
				name, pass, i, dx.Data.Data[i], wantDX[i])
		}
	}
}

// TestPoolMatchesReference checks both pooling modes against poolRef,
// bit for bit, on every pooling configuration the models use plus the
// padded stride-2 shape of TestAvgPoolGradient: 2/2/0 (VGG, LeNet,
// ZF), 3/2/0 (AlexNet, GoogLeNet, CIFARNet; ceil mode keeps a partial
// last window), 3/1/1 (Inception's projection pool, padded), 7/1/0
// (GoogLeNet's global average) and 3/2/1. Planes are odd and even,
// square and not, and smaller than one window (where the shape has an
// output at all), so windows that lie partly or wholly in the padding
// occur.
func TestPoolMatchesReference(t *testing.T) {
	configs := []struct{ k, s, p int }{{2, 2, 0}, {3, 2, 0}, {3, 1, 1}, {7, 1, 0}, {3, 2, 1}}
	planes := [][2]int{{1, 1}, {2, 2}, {2, 5}, {3, 3}, {4, 4}, {5, 7}, {7, 7}, {8, 8}, {9, 6}, {13, 13}, {16, 16}, {17, 17}}
	rng := tensor.NewRNG(31)
	for _, cf := range configs {
		for _, hw := range planes {
			for _, mode := range []PoolMode{MaxPool, AvgPool} {
				l := &Pool{name: "p", Mode: mode, Window: cf.k, Stride: cf.s, Pad: cf.p}
				if l.outHW(hw[0]) < 1 || l.outHW(hw[1]) < 1 {
					continue // no output: the shape is invalid for this window
				}
				x := tensor.New(2, 3, hw[0], hw[1])
				x.FillUniform(rng, -1, 1)
				dy := make([]float32, l.OutShape(x.Shape()).Elems())
				for i := range dy {
					dy[i] = rng.Float32()*2 - 1
				}
				name := fmt.Sprintf("mode %d k%d s%d p%d %dx%d", mode, cf.k, cf.s, cf.p, hw[0], hw[1])
				checkPoolAgainstRef(t, name, l, x, dy)
			}
		}
	}
}

// TestMaxPoolTiesAndSpecialValues pins max pooling where the window's
// first strict maximum matters: a plane of equal values sends each
// window's whole gradient to its first element; mixed-sign zeros keep
// the first zero; a NaN is never taken over a number, but a window
// whose first element is NaN pools to NaN and takes the gradient
// there. Each case matches poolRef bit for bit.
func TestMaxPoolTiesAndSpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	for _, cf := range []struct{ k, s, p int }{{2, 2, 0}, {3, 2, 0}, {3, 1, 1}, {3, 2, 1}} {
		l := NewMaxPool("p", cf.k, cf.s, cf.p)
		h, w := 9, 8
		dy := make([]float32, l.OutShape(tensor.Shape{1, 1, h, w}).Elems())
		for i := range dy {
			dy[i] = float32(i + 1)
		}
		flat := tensor.New(1, 1, h, w)
		flat.Fill(0.5)
		zeros := tensor.New(1, 1, h, w)
		nans := tensor.New(1, 1, h, w)
		for i := range zeros.Data {
			if i%3 != 1 {
				zeros.Data[i] = negZero
			}
			nans.Data[i] = float32(i%5) - 2
			if i%7 == 0 {
				nans.Data[i] = nan
			}
		}
		for name, x := range map[string]*tensor.Tensor{"flat": flat, "zeros": zeros, "nans": nans} {
			checkPoolAgainstRef(t, fmt.Sprintf("%s k%d s%d p%d", name, cf.k, cf.s, cf.p), l, x, dy)
		}
		// The flat plane's gradient lands on each window's first element.
		ctx := NewContext(nil, true)
		y := l.Forward(ctx, NewValue(flat))
		dx := l.Backward(ctx, NewValue(tensor.FromSlice(append([]float32(nil), dy...), y.Shape...)))
		oh, ow := y.Shape[2], y.Shape[3]
		want := make([]float32, h*w)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy, ix := max(oy*cf.s-cf.p, 0), max(ox*cf.s-cf.p, 0)
				want[iy*w+ix] += dy[oy*ow+ox]
			}
		}
		if i, ok := sameBits(dx.Data.Data, want); !ok {
			t.Errorf("flat k%d s%d p%d: gradient at %d is %v, want %v (each window's first element)",
				cf.k, cf.s, cf.p, i, dx.Data.Data[i], want[i])
		}
	}
}
