package im2col

import (
	"math"
	"testing"

	"gpucnn/internal/tensor"
)

// FuzzRoundTripMultiplicity fuzzes geometries and checks the
// col2im(im2col(x)) multiplicity identity that anchors the unrolling
// strategy's backward pass.
func FuzzRoundTripMultiplicity(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(1), uint8(0))
	f.Add(uint64(7), uint8(12), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(9), uint8(6), uint8(1), uint8(1), uint8(1))
	// Padding as wide as the kernel (2×2 kernel, pad 2).
	f.Add(uint64(4), uint8(1), uint8(1), uint8(0), uint8(2))
	// Output rows of 5 and 7, not a multiple of a packed panel's 8.
	f.Add(uint64(5), uint8(3), uint8(2), uint8(0), uint8(1))
	f.Add(uint64(6), uint8(3), uint8(1), uint8(1), uint8(2))
	// Strides of 2 and 3 with padding.
	f.Add(uint64(2), uint8(9), uint8(3), uint8(1), uint8(2))
	f.Add(uint64(3), uint8(11), uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, size, kernel, stride, pad uint8) {
		g := Geom{
			C: 1 + int(seed%3),
			H: 4 + int(size)%12, W: 4 + int(size)%12,
			KH: 1 + int(kernel)%4, KW: 1 + int(kernel)%4,
			StrideH: 1 + int(stride)%3, StrideW: 1 + int(stride)%3,
			PadH: int(pad) % 3, PadW: int(pad) % 3,
		}
		if g.Validate() != nil {
			t.Skip("degenerate geometry")
		}
		r := tensor.NewRNG(seed)
		img := make([]float32, g.C*g.H*g.W)
		for i := range img {
			img[i] = 2*r.Float32() - 1
		}
		col := make([]float32, g.ColRows()*g.ColCols())
		Im2col(g, img, col)
		back := make([]float32, len(img))
		Col2im(g, col, back)
		checkCol2imBits(t, g, int64(seed))
		cnt := coverageCount(g)
		for i := range img {
			if math.Abs(float64(back[i]-img[i]*cnt[i])) > 1e-4 {
				t.Fatalf("geometry %+v: multiplicity identity violated at %d", g, i)
			}
		}
	})
}
