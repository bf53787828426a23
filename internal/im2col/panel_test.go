package im2col

import (
	"math/rand"
	"testing"
)

// panelGeoms covers ragged spatial extents, all the stride/pad
// combinations the Table I sweep uses, 1×1 kernels, padding as wide as
// the kernel, output rows narrower than a panel, and the CIFARNet and
// AlexNet layers the unrolling engine runs.
var panelGeoms = []Geom{
	{C: 1, H: 4, W: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
	{C: 3, H: 8, W: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{C: 2, H: 9, W: 7, KH: 3, KW: 5, StrideH: 2, StrideW: 1, PadH: 2, PadW: 0},
	{C: 4, H: 11, W: 11, KH: 5, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 2},
	{C: 3, H: 16, W: 16, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
	{C: 1, H: 5, W: 5, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 4, PadW: 4},
	{C: 5, H: 6, W: 13, KH: 2, KW: 4, StrideH: 2, StrideW: 3, PadH: 1, PadW: 1},
	{C: 2, H: 3, W: 2, KH: 3, KW: 2, StrideH: 1, StrideW: 2, PadH: 3, PadW: 2},
	{C: 2, H: 5, W: 3, KH: 2, KW: 3, StrideH: 3, StrideW: 1, PadH: 1, PadW: 4},
	cifarConv1, cifarConv2, cifarConv3, alexConv1, alexConv2,
}

// The layers the unrolling engine runs in the benchmark workloads.
var (
	cifarConv1 = Geom{C: 3, H: 32, W: 32, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	cifarConv2 = Geom{C: 32, H: 16, W: 16, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	cifarConv3 = Geom{C: 32, H: 8, W: 8, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	alexConv1  = Geom{C: 3, H: 227, W: 227, KH: 11, KW: 11, StrideH: 4, StrideW: 4}
	alexConv2  = Geom{C: 96, H: 27, W: 27, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	alexConv5  = Geom{C: 384, H: 13, W: 13, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
)

func randImage(rng *rand.Rand, g Geom) []float32 {
	img := make([]float32, g.C*g.H*g.W)
	for i := range img {
		img[i] = float32(rng.NormFloat64())
	}
	return img
}

// checkPanels reconstructs op(B) panel by panel through the packer and
// compares every element against the materialised reference matrix.
func checkPanels(t *testing.T, g Geom, pk *PanelPacker, ref []float32, rows, cols int) {
	t.Helper()
	const ldp = 8
	for _, kc := range []int{1, 3, 8, rows} {
		if kc > rows {
			continue
		}
		for p0 := 0; p0 < rows; p0 += kc {
			kcv := kc
			if p0+kcv > rows {
				kcv = rows - p0
			}
			for j0 := 0; j0 < cols; j0 += ldp {
				nv := cols - j0
				if nv > ldp {
					nv = ldp
				}
				dst := make([]float32, kcv*ldp)
				for i := range dst {
					dst[i] = -999 // sentinel: tails must stay untouched
				}
				pk.PackPanelB(dst, ldp, p0, kcv, j0, nv)
				for p := 0; p < kcv; p++ {
					for c := 0; c < nv; c++ {
						want := ref[(p0+p)*cols+(j0+c)]
						if got := dst[p*ldp+c]; got != want {
							t.Fatalf("geom %+v panel p0=%d j0=%d: [%d,%d] = %g, want %g",
								g, p0, j0, p, c, got, want)
						}
					}
					for c := nv; c < ldp; c++ {
						if dst[p*ldp+c] != -999 {
							t.Fatalf("geom %+v panel p0=%d j0=%d: tail column %d written", g, p0, j0, c)
						}
					}
				}
			}
		}
	}
}

func TestPanelPackerMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range panelGeoms {
		if err := g.Validate(); err != nil {
			t.Fatalf("bad test geom: %v", err)
		}
		img := randImage(rng, g)
		rows, cols := g.ColRows(), g.ColCols()
		col := make([]float32, rows*cols)
		Im2col(g, img, col)

		pk := GetPacker()
		pk.Reset(g, img)
		checkPanels(t, g, pk, col, rows, cols)

		// Transposed orientation: op(B) = colᵀ.
		colT := make([]float32, cols*rows)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				colT[c*rows+r] = col[r*cols+c]
			}
		}
		pk.ResetTransposed(g, img)
		checkPanels(t, g, pk, colT, cols, rows)
		PutPacker(pk)
	}
}

// FuzzPanelPacker compares fused panel generation against materialised
// Im2col over fuzzer-chosen geometry, panel window, and orientation.
func FuzzPanelPacker(f *testing.F) {
	f.Add(3, 8, 8, 3, 3, 1, 1, 1, 1, 0, 10, false)
	f.Add(2, 9, 7, 5, 3, 2, 1, 2, 0, 4, 0, true)
	f.Add(1, 4, 4, 3, 3, 1, 1, 0, 0, 0, 0, false)
	// Padding as wide as the kernel: whole runs of padding.
	f.Add(1, 2, 3, 2, 1, 0, 0, 3, 2, 5, 3, false)
	f.Add(1, 2, 3, 2, 1, 0, 0, 3, 2, 5, 3, true)
	// Output rows of 5 and 7: a panel crosses one or two rows.
	f.Add(0, 8, 6, 4, 2, 0, 0, 2, 0, 2, 3, false)
	f.Add(1, 6, 6, 2, 2, 0, 0, 1, 1, 4, 9, true)
	// Strides above 1 on both axes.
	f.Add(2, 11, 10, 3, 2, 2, 1, 1, 2, 7, 1, false)
	f.Add(2, 11, 10, 3, 2, 1, 2, 2, 1, 1, 7, true)
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, sh, sw, ph, pw, p0, j0 int, trans bool) {
		fold := func(v, lo, hi int) int {
			if v < 0 {
				v = -v
			}
			return lo + v%(hi-lo+1)
		}
		g := Geom{
			C: fold(c, 1, 4), H: fold(h, 1, 12), W: fold(w, 1, 12),
			KH: fold(kh, 1, 5), KW: fold(kw, 1, 5),
			StrideH: fold(sh, 1, 3), StrideW: fold(sw, 1, 3),
			PadH: fold(ph, 0, 3), PadW: fold(pw, 0, 3),
		}
		if g.Validate() != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(77))
		img := randImage(rng, g)
		rows, cols := g.ColRows(), g.ColCols()
		col := make([]float32, rows*cols)
		Im2col(g, img, col)

		kRows, kCols := rows, cols
		if trans {
			kRows, kCols = cols, rows
		}
		P0 := fold(p0, 0, kRows-1)
		J0 := fold(j0, 0, kCols-1)
		kc := kRows - P0
		if kc > 9 {
			kc = 9
		}
		nv := kCols - J0
		if nv > 8 {
			nv = 8
		}
		const ldp = 8

		pk := GetPacker()
		defer PutPacker(pk)
		if trans {
			pk.ResetTransposed(g, img)
		} else {
			pk.Reset(g, img)
		}
		dst := make([]float32, kc*ldp)
		pk.PackPanelB(dst, ldp, P0, kc, J0, nv)
		for p := 0; p < kc; p++ {
			for cc := 0; cc < nv; cc++ {
				var want float32
				if trans {
					want = col[(J0+cc)*cols+(P0+p)]
				} else {
					want = col[(P0+p)*cols+(J0+cc)]
				}
				if dst[p*ldp+cc] != want {
					t.Fatalf("geom %+v trans=%v panel (%d,%d): [%d,%d] = %g, want %g",
						g, trans, P0, J0, p, cc, dst[p*ldp+cc], want)
				}
			}
		}
	})
}

// BenchmarkPanelPacker packs the whole of op(B) for one image of each
// CIFARNet conv layer and of AlexNet's conv1 and conv5, in both
// orientations, as the packed GEMM walks
// it: kc-row blocks of 16-column panels. kc = 192 is the blocking the
// GEMM derives for a 48 KiB L1d. GB/s counts the floats written.
func BenchmarkPanelPacker(b *testing.B) {
	const kc, nr = 192, 16
	layers := []struct {
		name string
		g    Geom
	}{
		{"conv1", cifarConv1},
		{"conv2", cifarConv2},
		{"conv3", cifarConv3},
		{"alexnet_conv1", alexConv1},
		{"alexnet_conv5", alexConv5},
	}
	for _, orient := range []string{"fwd", "trans"} {
		for _, l := range layers {
			g := l.g
			img := randImage(rand.New(rand.NewSource(1)), g)
			rows, cols := g.ColRows(), g.ColCols()
			if orient == "trans" {
				rows, cols = cols, rows
			}
			dst := make([]float32, kc*nr)
			b.Run(orient+"/"+l.name, func(b *testing.B) {
				pk := GetPacker()
				defer PutPacker(pk)
				if orient == "trans" {
					pk.ResetTransposed(g, img)
				} else {
					pk.Reset(g, img)
				}
				for i := 0; i < b.N; i++ {
					for p0 := 0; p0 < rows; p0 += kc {
						kcv := min(kc, rows-p0)
						for j0 := 0; j0 < cols; j0 += nr {
							pk.PackPanelB(dst, nr, p0, kcv, j0, min(nr, cols-j0))
						}
					}
				}
				b.ReportMetric(float64(rows*cols*4)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}
