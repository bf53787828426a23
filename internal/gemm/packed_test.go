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

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// tol scales the comparison tolerance with the reduction depth: the
// packed kernel sums in a different order than the oracle.
func tol(k int) float64 {
	return 1e-4 * math.Sqrt(float64(k)+1)
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
				Packed(new(workspace.Arena), 1.3, a, b, 0.4, got, m, n, k)
				if d := maxAbsDiff(want, got); d > tol(k) {
					t.Fatalf("Packed mismatch m=%d n=%d k=%d: max diff %g", m, n, k, d)
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
			ntLegacy(1, a, b, 0, want, m, n, k)
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
			tnLegacy(1, a, b, 0, want, m, n, k)
			scaleRows(0, got, 0, m, n)
			packedGEMM(new(workspace.Arena), 1, 1, matAT(a, m), matB(b, n), got, m, n, k)
			if d := maxAbsDiff(want, got); d > tol(k) {
				t.Fatalf("packed TN mismatch m=%d n=%d k=%d: max diff %g", m, n, k, d)
			}
		}
	}
}

// TestLargeEntryPointsUsePackedKernel pushes the public entry points
// over the packed-routing threshold so the packed path (not the legacy
// fallback) is what's verified against the oracle.
func TestLargeEntryPointsUsePackedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m, n, k = 70, 65, 40 // m*n*k = 182000 > packedThreshold()
	if !routesToPacked(m, n, k) {
		t.Fatalf("test shape %dx%dx%d no longer routes to the packed kernel (threshold %d)",
			m, n, k, packedThreshold())
	}
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	bT := make([]float32, n*k) // b transposed: n×k
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bT[j*k+p] = b[p*n+j]
		}
	}
	aT := make([]float32, k*m) // a transposed: k×m
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			aT[p*m+i] = a[i*k+p]
		}
	}
	want := make([]float32, m*n)
	Naive(2, a, b, 0, want, m, n, k)

	for _, tc := range []struct {
		name string
		run  func(c []float32)
	}{
		{"Blocked", func(c []float32) { Blocked(new(workspace.Arena), 2, a, b, 0, c, m, n, k) }},
		{"Parallel", func(c []float32) { Parallel(2, a, b, 0, c, m, n, k) }},
		{"NT", func(c []float32) { NT(new(workspace.Arena), 2, a, bT, 0, c, m, n, k) }},
		{"TN", func(c []float32) { TN(new(workspace.Arena), 2, aT, b, 0, c, m, n, k) }},
		{"ParallelNT", func(c []float32) { ParallelNT(new(workspace.Arena), 2, a, bT, 0, c, m, n, k) }},
	} {
		got := make([]float32, m*n)
		tc.run(got)
		if d := maxAbsDiff(want, got); d > tol(k) {
			t.Fatalf("%s mismatch at m=%d n=%d k=%d: max diff %g", tc.name, m, n, k, d)
		}
	}
}

func TestCPackedMatchesCNaiveRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 17, 33}
	randC := func(n int) []complex64 {
		s := make([]complex64, n)
		for i := range s {
			s[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		return s
	}
	for _, m := range sizes {
		for _, n := range sizes {
			for _, k := range []int{1, 4, 5, 9, 33} {
				a := randC(m * k)
				b := randC(k * n)
				want := randC(m * n)
				got := append([]complex64(nil), want...)
				alpha := complex64(complex(1.1, -0.3))
				beta := complex64(complex(0.2, 0.7))
				CNaive(alpha, a, b, beta, want, m, n, k)
				CPacked(new(workspace.Arena), alpha, a, b, beta, got, m, n, k)
				for i := range want {
					dr := math.Abs(float64(real(want[i]) - real(got[i])))
					di := math.Abs(float64(imag(want[i]) - imag(got[i])))
					if dr > tol(k)*2 || di > tol(k)*2 {
						t.Fatalf("CPacked mismatch m=%d n=%d k=%d at %d: want %v got %v", m, n, k, i, want[i], got[i])
					}
				}
			}
		}
	}
}

func TestCParallelMatchesCNaiveLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, n, k = 48, 33, 40
	a := make([]complex64, m*k)
	b := make([]complex64, k*n)
	for i := range a {
		a[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	for i := range b {
		b[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	want := make([]complex64, m*n)
	got := make([]complex64, m*n)
	CNaive(1, a, b, 0, want, m, n, k)
	CParallel(new(workspace.Arena), 1, a, b, 0, got, m, n, k)
	for i := range want {
		dr := math.Abs(float64(real(want[i]) - real(got[i])))
		di := math.Abs(float64(imag(want[i]) - imag(got[i])))
		if dr > tol(k)*2 || di > tol(k)*2 {
			t.Fatalf("CParallel mismatch at %d: want %v got %v", i, want[i], got[i])
		}
	}
}
