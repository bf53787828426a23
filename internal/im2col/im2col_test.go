package im2col

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpucnn/internal/tensor"
)

func TestGeomOutputDims(t *testing.T) {
	cases := []struct {
		g          Geom
		wantH, wOW int
	}{
		{Geom{C: 1, H: 5, W: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, 3, 3},
		{Geom{C: 1, H: 5, W: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2}, 2, 2},
		{Geom{C: 1, H: 5, W: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 5, 5},
		{Geom{C: 1, H: 128, W: 128, KH: 11, KW: 11, StrideH: 1, StrideW: 1}, 118, 118},
		{Geom{C: 1, H: 7, W: 9, KH: 3, KW: 5, StrideH: 2, StrideW: 2}, 3, 3},
	}
	for _, c := range cases {
		if c.g.OutH() != c.wantH || c.g.OutW() != c.wOW {
			t.Errorf("%+v: got %dx%d, want %dx%d", c.g, c.g.OutH(), c.g.OutW(), c.wantH, c.wOW)
		}
	}
}

func TestGeomValidate(t *testing.T) {
	good := Geom{C: 3, H: 8, W: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geom{
		{C: 0, H: 8, W: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		{C: 3, H: 8, W: 8, KH: 3, KW: 3, StrideH: 0, StrideW: 1},
		{C: 3, H: 8, W: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: -1},
		{C: 3, H: 2, W: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

func TestColDims(t *testing.T) {
	g := Geom{C: 3, H: 10, W: 10, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if g.ColRows() != 27 {
		t.Fatalf("ColRows = %d, want 27", g.ColRows())
	}
	if g.ColCols() != 64 {
		t.Fatalf("ColCols = %d, want 64", g.ColCols())
	}
	if g.ColBytes() != 27*64*4 {
		t.Fatalf("ColBytes = %d", g.ColBytes())
	}
}

func TestIm2colHandExample(t *testing.T) {
	// 1 channel, 3x3 image, 2x2 kernel, stride 1: 4 output positions.
	g := Geom{C: 1, H: 3, W: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	img := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	col := make([]float32, g.ColRows()*g.ColCols())
	Im2col(g, img, col)
	// Rows are (kh,kw) pairs; columns are output positions row-major.
	want := []float32{
		1, 2, 4, 5, // kh=0 kw=0
		2, 3, 5, 6, // kh=0 kw=1
		4, 5, 7, 8, // kh=1 kw=0
		5, 6, 8, 9, // kh=1 kw=1
	}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("col[%d] = %v, want %v (full %v)", i, col[i], want[i], col)
		}
	}
}

func TestIm2colPaddingZeros(t *testing.T) {
	g := Geom{C: 1, H: 2, W: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := []float32{1, 2, 3, 4}
	col := make([]float32, g.ColRows()*g.ColCols())
	Im2col(g, img, col)
	// Centre kernel tap (kh=1,kw=1) sees the unshifted image.
	centre := col[4*g.ColCols() : 5*g.ColCols()]
	for i, want := range []float32{1, 2, 3, 4} {
		if centre[i] != want {
			t.Fatalf("centre tap col = %v", centre)
		}
	}
	// Top-left tap (kh=0,kw=0) at output (0,0) reads padding -> 0.
	if col[0] != 0 {
		t.Fatalf("padded read should be zero, got %v", col[0])
	}
}

func TestCol2imAccumulates(t *testing.T) {
	// With a 2x2 kernel over a 3x3 image, the centre pixel is covered by
	// all 4 receptive fields; col of all ones must scatter multiplicity.
	g := Geom{C: 1, H: 3, W: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	col := make([]float32, g.ColRows()*g.ColCols())
	for i := range col {
		col[i] = 1
	}
	img := make([]float32, 9)
	Col2im(g, col, img)
	want := []float32{
		1, 2, 1,
		2, 4, 2,
		1, 2, 1,
	}
	for i := range want {
		if img[i] != want[i] {
			t.Fatalf("img = %v, want %v", img, want)
		}
	}
}

// col2imRef is the element-by-element scatter Col2im replaced: every
// (tap, output position) is bounds-tested and added on its own, in the
// order of col's rows. Col2im must match it bit for bit.
func col2imRef(g Geom, col []float32, img []float32) {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	for i := range img[:g.C*g.H*g.W] {
		img[i] = 0
	}
	row := 0
	for c := 0; c < g.C; c++ {
		chanBase := c * g.H * g.W
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				src := col[row*cols:]
				idx := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH + kh - g.PadH
					if iy < 0 || iy >= g.H {
						idx += ow
						continue
					}
					rowBase := chanBase + iy*g.W
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW + kw - g.PadW
						if ix >= 0 && ix < g.W {
							img[rowBase+ix] += src[idx]
						}
						idx++
					}
				}
				row++
			}
		}
	}
}

// checkCol2imBits scatters a random column matrix through Col2im and
// col2imRef and requires the same bits at every pixel. The column
// values span several magnitudes so a change in summation order would
// show in the low bits.
func checkCol2imBits(t *testing.T, g Geom, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col := make([]float32, g.ColRows()*g.ColCols())
	for i := range col {
		col[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	got := make([]float32, g.C*g.H*g.W)
	for i := range got {
		got[i] = float32(i) // Col2im must overwrite, not add to, the target
	}
	want := make([]float32, len(got))
	Col2im(g, col, got)
	col2imRef(g, col, want)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("geom %+v: img[%d] = %g (%#08x), reference %g (%#08x)",
				g, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestCol2imMatchesReferenceBits(t *testing.T) {
	for i, g := range panelGeoms {
		checkCol2imBits(t, g, int64(i+1))
	}
}

func TestCol2imZeroesTarget(t *testing.T) {
	g := Geom{C: 1, H: 3, W: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	col := make([]float32, g.ColRows()*g.ColCols())
	img := []float32{9, 9, 9, 9, 9, 9, 9, 9, 9}
	Col2im(g, col, img)
	for i, v := range img {
		if v != 0 {
			t.Fatalf("img[%d] = %v, want 0 (Col2im must clear target)", i, v)
		}
	}
}

// TestRoundTripMultiplicity: col2im(im2col(x)) multiplies each pixel by
// the number of receptive fields covering it. With stride==kernel
// (non-overlapping tiling, no padding) that multiplicity is exactly 1.
func TestRoundTripNonOverlapping(t *testing.T) {
	g := Geom{C: 2, H: 6, W: 6, KH: 3, KW: 3, StrideH: 3, StrideW: 3}
	r := tensor.NewRNG(1)
	img := make([]float32, g.C*g.H*g.W)
	for i := range img {
		img[i] = 2*r.Float32() - 1
	}
	col := make([]float32, g.ColRows()*g.ColCols())
	Im2col(g, img, col)
	back := make([]float32, len(img))
	Col2im(g, col, back)
	for i := range img {
		if math.Abs(float64(img[i]-back[i])) > 1e-6 {
			t.Fatalf("non-overlapping round trip should be identity at %d: %v vs %v", i, img[i], back[i])
		}
	}
}

// coverageCount computes, for each input pixel, how many receptive
// fields include it — the expected round-trip multiplicity.
func coverageCount(g Geom) []float32 {
	cnt := make([]float32, g.C*g.H*g.W)
	oh, ow := g.OutH(), g.OutW()
	for c := 0; c < g.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for kh := 0; kh < g.KH; kh++ {
					for kw := 0; kw < g.KW; kw++ {
						iy := oy*g.StrideH + kh - g.PadH
						ix := ox*g.StrideW + kw - g.PadW
						if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
							cnt[(c*g.H+iy)*g.W+ix]++
						}
					}
				}
			}
		}
	}
	return cnt
}

func TestRoundTripMultiplicityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		g := Geom{
			C: 1 + r.Intn(3), H: 4 + r.Intn(8), W: 4 + r.Intn(8),
			KH: 1 + r.Intn(3), KW: 1 + r.Intn(3),
			StrideH: 1 + r.Intn(2), StrideW: 1 + r.Intn(2),
			PadH: r.Intn(2), PadW: r.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate draws
		}
		img := make([]float32, g.C*g.H*g.W)
		for i := range img {
			img[i] = 2*r.Float32() - 1
		}
		col := make([]float32, g.ColRows()*g.ColCols())
		Im2col(g, img, col)
		back := make([]float32, len(img))
		Col2im(g, col, back)
		cnt := coverageCount(g)
		for i := range img {
			if math.Abs(float64(back[i]-img[i]*cnt[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2colBufferTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on undersized buffer")
		}
	}()
	g := Geom{C: 1, H: 4, W: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	Im2col(g, make([]float32, 16), make([]float32, 3))
}
