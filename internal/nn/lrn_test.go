package nn

import (
	"fmt"
	"math"
	"testing"

	"gpucnn/internal/tensor"
)

// lrnRef is the oracle for both LRN passes: the plain float64 loops,
// walking (image, pixel, channel, window) with math.Pow per element. It
// returns the output, the scale and the input gradient for dy.
func lrnRef(l *LRN, x, dy *tensor.Tensor) (y, scale, dx *tensor.Tensor) {
	s := x.Shape()
	n, c, hw := s[0], s[1], s[2]*s[3]
	y, scale, dx = tensor.New(s...), tensor.New(s...), tensor.New(s...)
	half := l.N / 2
	ratio := 2 * l.Alpha * l.Beta / float64(l.N)
	for bi := 0; bi < n; bi++ {
		base := bi * c * hw
		for pos := 0; pos < hw; pos++ {
			at := func(ci int) int { return base + ci*hw + pos }
			window := func(ci int) (int, int) { return max(ci-half, 0), min(ci+half, c-1) }
			g := make([]float64, c)
			for ci := 0; ci < c; ci++ {
				var energy float64
				lo, hi := window(ci)
				for j := lo; j <= hi; j++ {
					v := float64(x.Data[at(j)])
					energy += v * v
				}
				sv := l.K + l.Alpha/float64(l.N)*energy
				scale.Data[at(ci)] = float32(sv)
				y.Data[at(ci)] = float32(float64(x.Data[at(ci)]) * math.Pow(sv, -l.Beta))
				g[ci] = float64(dy.Data[at(ci)]) * float64(x.Data[at(ci)]) * math.Pow(sv, -l.Beta-1)
			}
			for ci := 0; ci < c; ci++ {
				sv := float64(scale.Data[at(ci)])
				acc := float64(dy.Data[at(ci)]) * math.Pow(sv, -l.Beta)
				lo, hi := window(ci)
				var sum float64
				for j := lo; j <= hi; j++ {
					sum += g[j]
				}
				dx.Data[at(ci)] = float32(acc - ratio*float64(x.Data[at(ci)])*sum)
			}
		}
	}
	return y, scale, dx
}

// TestLRNMatchesReference checks the forward output, the held scale
// and the input gradient against lrnRef at β ∈ {0.5, 0.75, 1} and
// N ∈ {3, 5}, on channel counts below the window and of one, at batch
// 1 and 3 and an odd h·w. α is large so the window matters.
func TestLRNMatchesReference(t *testing.T) {
	for _, beta := range []float64{0.5, 0.75, 1} {
		for _, win := range []int{3, 5} {
			for _, s := range [][4]int{{1, 1, 3, 5}, {1, 2, 5, 5}, {3, 4, 3, 3}, {1, 11, 7, 9}, {3, 8, 5, 3}} {
				l := NewLRN("n", win, 0.5, beta, 2)
				x, dy := tensor.New(s[:]...), tensor.New(s[:]...)
				x.FillUniform(tensor.NewRNG(uint64(31+win)), -2, 2)
				dy.FillUniform(tensor.NewRNG(uint64(37+win)), -1, 1)
				wantY, wantS, wantDX := lrnRef(l, x, dy)
				ctx := NewContext(nil, true)
				y := l.Forward(ctx, NewValue(x)).Data
				scale := tensor.FromSlice(l.scale, s[:]...)
				dx := l.Backward(ctx, NewValue(dy)).Data
				name := fmt.Sprintf("beta=%g N=%d shape=%v", beta, win, s)
				for _, cmp := range []struct {
					what      string
					got, want *tensor.Tensor
				}{{"output", y, wantY}, {"scale", scale, wantS}, {"gradient", dx, wantDX}} {
					if d := tensor.RelDiff(cmp.want, cmp.got); !(d <= 1e-5) {
						t.Errorf("%s: %s differs from the reference by %g", name, cmp.what, d)
					}
				}
			}
		}
	}
}

// TestLRNPowMatchesMathPow checks the β = 0.75 form 1/(√s·√√s)
// against math.Pow within 5e-7 relative, over scales spread across
// float32's whole normal range and at its edges, and that a NaN scale
// gives NaN on both paths.
func TestLRNPowMatchesMathPow(t *testing.T) {
	scales := []float32{0, 1e-40, 0x1p-126, 1, math.Sqrt2, math.MaxFloat32, float32(math.Inf(1))}
	for i := 0; i <= 2000; i++ {
		scales = append(scales, float32(math.Exp2(-126+253*float64(i)/2000)))
	}
	p := newLRNPow(0.75)
	for _, s := range scales {
		got := float64(p.of(s))
		want := float64(float32(math.Pow(float64(s), -0.75)))
		if d := math.Abs(got-want) / want; got != want && !(d <= 5e-7) {
			t.Errorf("%g^-0.75 = %g, want %g (rel %g)", s, got, want, d)
		}
	}
	for _, beta := range []float64{0.5, 0.75, 1} {
		if got := newLRNPow(beta).of(float32(math.NaN())); !math.IsNaN(float64(got)) {
			t.Errorf("beta=%g: NaN^-beta = %g, want NaN", beta, got)
		}
	}
}
