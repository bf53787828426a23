package gemm

import (
	"math"
	"math/rand"
	"testing"

	"gpucnn/internal/workspace"
)

// raggedSizes covers the packing edge cases: tiny shapes, the mr/nr
// tile boundaries ±1, and cache-block boundaries.
var raggedSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// maxAbsDiff is the largest |a[i] − b[i]|, or +Inf where either side
// is NaN, so a NaN result never compares close.
func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		m = max(m, d)
	}
	return m
}

// tol scales the comparison tolerance with the reduction depth: the
// packed kernel sums in a different order than the oracle.
func tol(k int) float64 {
	return 1e-4 * math.Sqrt(float64(k)+1)
}

// transpose returns the cols×rows transpose of a row-major rows×cols
// matrix, so the NT/TN operands can be checked against Naive.
func transpose(src []float32, rows, cols int) []float32 {
	dst := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
	return dst
}

func TestPackedMatchesNaiveRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range raggedSizes {
		for _, n := range raggedSizes {
			for _, k := range raggedSizes {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				want := randSlice(rng, m*n)
				got := append([]float32(nil), want...)
				Naive(1.3, a, b, 0.4, want, m, n, k)
				Blocked(new(workspace.Arena), 1.3, a, b, 0.4, got, m, n, k)
				if d := maxAbsDiff(want, got); d > tol(k) {
					t.Fatalf("Blocked mismatch m=%d n=%d k=%d: max diff %g", m, n, k, d)
				}
			}
		}
	}
}

// TestMicroKernelEveryRaggedTile sweeps every valid extent (mv, nv) of
// a micro-tile. Each product is (mr+mv)×(nr+nv), so one call covers a
// full tile, a ragged bottom edge, a ragged right edge and a ragged
// corner, with C's leading dimension wider than the ragged part; on FMA
// hosts the ragged tiles run the assembly kernel through a stack tile.
func TestMicroKernelEveryRaggedTile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 3, 17, 256} {
		for mv := 1; mv <= mr; mv++ {
			for nv := 1; nv <= nr; nv++ {
				m, n := mr+mv, nr+nv
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				want := randSlice(rng, m*n)
				got := append([]float32(nil), want...)
				Naive(1.5, a, b, 0.5, want, m, n, k)
				Blocked(new(workspace.Arena), 1.5, a, b, 0.5, got, m, n, k)
				if d := maxAbsDiff(want, got); d > tol(k) {
					t.Fatalf("mv=%d nv=%d k=%d: max diff %g", mv, nv, k, d)
				}
			}
		}
	}
}

func TestPackedParallelMatchesNaiveRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Force the parallel dispatch path regardless of GOMAXPROCS so the
	// tile-distribution logic is exercised (and races surface under
	// -race) even on single-CPU runners.
	for _, m := range []int{1, 7, 9, 64, 127} {
		for _, k := range []int{1, 8, 127} {
			n := 65
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			want := randSlice(rng, m*n)
			got := append([]float32(nil), want...)
			Naive(1, a, b, 0.5, want, m, n, k)
			scaleRows(0.5, got, 0, m, n)
			packedGEMM(new(workspace.Arena), 4, 1, matA(a, k), matB(b, n), got, m, n, k)
			if d := maxAbsDiff(want, got); d > tol(k) {
				t.Fatalf("parallel packed mismatch m=%d n=%d k=%d: max diff %g", m, n, k, d)
			}
		}
	}
}

func TestPackedNTMatchesOracleRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range raggedSizes {
		for _, n := range []int{1, 7, 8, 9, 64, 127} {
			k := 33
			a := randSlice(rng, m*k)
			b := randSlice(rng, n*k)
			want := make([]float32, m*n)
			got := make([]float32, m*n)
			Naive(1, a, transpose(b, n, k), 0, want, m, n, k)
			scaleRows(0, got, 0, m, n)
			packedGEMM(new(workspace.Arena), 1, 1, matA(a, k), matBT(b, k), got, m, n, k)
			if d := maxAbsDiff(want, got); d > tol(k) {
				t.Fatalf("packed NT mismatch m=%d n=%d k=%d: max diff %g", m, n, k, d)
			}
		}
	}
}

func TestPackedTNMatchesOracleRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, m := range []int{1, 7, 8, 9, 64, 127} {
		for _, k := range raggedSizes {
			n := 31
			a := randSlice(rng, k*m)
			b := randSlice(rng, k*n)
			want := make([]float32, m*n)
			got := make([]float32, m*n)
			Naive(1, transpose(a, k, m), b, 0, want, m, n, k)
			scaleRows(0, got, 0, m, n)
			packedGEMM(new(workspace.Arena), 1, 1, matAT(a, m), matB(b, n), got, m, n, k)
			if d := maxAbsDiff(want, got); d > tol(k) {
				t.Fatalf("packed TN mismatch m=%d n=%d k=%d: max diff %g", m, n, k, d)
			}
		}
	}
}

// TestLargeEntryPointsUsePackedKernel checks every public SGEMM entry
// point against the oracle at a multi-tile shape, and at the degenerate
// shapes with a zero extent: there C must come back as exactly β·C, and
// nothing past the m×n result may be touched. The m = 1 cases run
// ParallelNT's skinny path.
func TestLargeEntryPointsUsePackedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alpha, beta, guard = 2, 0.5, 4
	for _, s := range [][3]int{{70, 65, 40}, {70, 65, 0}, {0, 65, 40}, {70, 0, 40}, {1, 65, 0}, {1, 0, 40}} {
		m, n, k := s[0], s[1], s[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		aT, bT := transpose(a, m, k), transpose(b, k, n)
		c0 := randSlice(rng, m*n+guard)
		want := append([]float32(nil), c0...)
		if m*n*k == 0 {
			for i := range want[:m*n] {
				want[i] *= beta
			}
		} else {
			Naive(alpha, a, b, beta, want, m, n, k)
		}

		for _, tc := range []struct {
			name string
			run  func(c []float32)
		}{
			{"Blocked", func(c []float32) { Blocked(new(workspace.Arena), alpha, a, b, beta, c, m, n, k) }},
			{"Parallel", func(c []float32) { Parallel(alpha, a, b, beta, c, m, n, k) }},
			{"NT", func(c []float32) { NT(new(workspace.Arena), alpha, a, bT, beta, c, m, n, k) }},
			{"TN", func(c []float32) { TN(new(workspace.Arena), alpha, aT, b, beta, c, m, n, k) }},
			{"ParallelNT", func(c []float32) { ParallelNT(new(workspace.Arena), alpha, a, bT, beta, c, m, n, k) }},
		} {
			got := append([]float32(nil), c0...)
			tc.run(got)
			limit := tol(k)
			if m*n*k == 0 {
				limit = 0
			}
			if d := maxAbsDiff(want[:m*n], got[:m*n]); d > limit {
				t.Fatalf("%s mismatch at m=%d n=%d k=%d: max diff %g", tc.name, m, n, k, d)
			}
			if d := maxAbsDiff(want[m*n:], got[m*n:]); d != 0 {
				t.Fatalf("%s at m=%d n=%d k=%d wrote past the m×n result", tc.name, m, n, k)
			}
		}
	}
}

// TestSkinnyNTMatchesNaive checks ParallelNT's skinny path, and the
// first m past it, against the oracle on B's transpose: every m up to
// skinnyM+1, reductions shorter than, equal to and past the eight
// partial sums, alpha ≠ 1 and each kind of beta. With beta = 0, C
// starts as NaN, which must not survive. The n = 300, k = 4097 shape
// is large enough to fan out over the par pool.
func TestSkinnyNTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const alpha = 1.5
	nan := float32(math.NaN())
	for m := 1; m <= skinnyM+1; m++ {
		for _, k := range []int{1, 7, 9, 4097} {
			n := 37
			if k == 4097 {
				n = 300
			}
			a := randSlice(rng, m*k)
			bT := randSlice(rng, n*k)
			b := transpose(bT, n, k)
			for _, beta := range []float32{0, 0.5, 1} {
				c0 := randSlice(rng, m*n)
				if beta == 0 {
					for i := range c0 {
						c0[i] = nan
					}
				}
				want := append([]float32(nil), c0...)
				if beta == 0 {
					clear(want)
				}
				Naive(alpha, a, b, beta, want, m, n, k)
				got := append([]float32(nil), c0...)
				ParallelNT(new(workspace.Arena), alpha, a, bT, beta, got, m, n, k)
				for i := range got {
					if d := math.Abs(float64(got[i] - want[i])); !(d <= tol(k)) {
						t.Fatalf("m=%d n=%d k=%d beta=%g: C[%d] = %g, want %g", m, n, k, beta, i, got[i], want[i])
					}
				}
			}
		}
	}
}
