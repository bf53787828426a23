package gemm

import (
	"math"
	"testing"
	"testing/quick"

	"gpucnn/internal/tensor"

	"gpucnn/internal/workspace"
)

func randMat(r *tensor.RNG, rows, cols int) []float32 {
	m := make([]float32, rows*cols)
	for i := range m {
		m[i] = 2*r.Float32() - 1
	}
	return m
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestNaiveIdentity(t *testing.T) {
	// I * B == B
	n := 8
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	r := tensor.NewRNG(1)
	b := randMat(r, n, n)
	c := make([]float32, n*n)
	Naive(1, id, b, 0, c, n, n, n)
	if maxDiff(b, c) != 0 {
		t.Fatal("identity multiplication should be exact")
	}
}

func TestNaiveKnownValues(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	Naive(1, a, b, 0, c, 2, 2, 2)
	want := []float32{19, 22, 43, 50}
	if maxDiff(c, want) != 0 {
		t.Fatalf("got %v, want %v", c, want)
	}
}

func TestAlphaBeta(t *testing.T) {
	a := []float32{1, 0, 0, 1}
	b := []float32{2, 0, 0, 2}
	c := []float32{1, 1, 1, 1}
	Naive(3, a, b, 2, c, 2, 2, 2)
	// C = 3*(2I) + 2*ones = [8 2; 2 8]
	want := []float32{8, 2, 2, 8}
	if maxDiff(c, want) != 0 {
		t.Fatalf("got %v, want %v", c, want)
	}
}

func TestBlockedMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {65, 63, 70}, {128, 17, 200}} {
		m, n, k := dims[0], dims[1], dims[2]
		r := tensor.NewRNG(uint64(m*1000 + n*10 + k))
		a, b := randMat(r, m, k), randMat(r, k, n)
		c1 := randMat(r, m, n)
		c2 := append([]float32(nil), c1...)
		Naive(1.5, a, b, 0.5, c1, m, n, k)
		Blocked(new(workspace.Arena), 1.5, a, b, 0.5, c2, m, n, k)
		if d := maxDiff(c1, c2); d > 1e-4 {
			t.Fatalf("m=%d n=%d k=%d: blocked differs from naive by %g", m, n, k, d)
		}
	}
}

func TestParallelMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{200, 150, 120}, {301, 99, 77}, {33, 513, 64}} {
		m, n, k := dims[0], dims[1], dims[2]
		r := tensor.NewRNG(uint64(m + n + k))
		a, b := randMat(r, m, k), randMat(r, k, n)
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		Naive(1, a, b, 0, c1, m, n, k)
		Parallel(1, a, b, 0, c2, m, n, k)
		if d := maxDiff(c1, c2); d > 1e-3 {
			t.Fatalf("m=%d n=%d k=%d: parallel differs from naive by %g", m, n, k, d)
		}
	}
}

func TestNTMatchesNaive(t *testing.T) {
	m, n, k := 13, 17, 19
	r := tensor.NewRNG(4)
	a := randMat(r, m, k)
	bt := randMat(r, n, k) // B stored transposed: n×k
	// Build B (k×n) explicitly for the naive reference.
	b := make([]float32, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			b[p*n+j] = bt[j*k+p]
		}
	}
	c1 := make([]float32, m*n)
	c2 := make([]float32, m*n)
	Naive(1, a, b, 0, c1, m, n, k)
	NT(new(workspace.Arena), 1, a, bt, 0, c2, m, n, k)
	if d := maxDiff(c1, c2); d > 1e-4 {
		t.Fatalf("NT differs from naive by %g", d)
	}
}

func TestTNMatchesNaive(t *testing.T) {
	m, n, k := 11, 23, 15
	r := tensor.NewRNG(5)
	at := randMat(r, k, m) // A stored transposed: k×m
	b := randMat(r, k, n)
	a := make([]float32, m*k)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			a[i*k+p] = at[p*m+i]
		}
	}
	c1 := make([]float32, m*n)
	c2 := make([]float32, m*n)
	Naive(1, a, b, 0, c1, m, n, k)
	TN(new(workspace.Arena), 1, at, b, 0, c2, m, n, k)
	if d := maxDiff(c1, c2); d > 1e-4 {
		t.Fatalf("TN differs from naive by %g", d)
	}
}

func TestParallelNTMatchesNT(t *testing.T) {
	m, n, k := 220, 130, 140
	r := tensor.NewRNG(6)
	a := randMat(r, m, k)
	bt := randMat(r, n, k)
	c1 := make([]float32, m*n)
	c2 := make([]float32, m*n)
	NT(new(workspace.Arena), 1, a, bt, 0, c1, m, n, k)
	ParallelNT(new(workspace.Arena), 1, a, bt, 0, c2, m, n, k)
	if d := maxDiff(c1, c2); d > 1e-3 {
		t.Fatalf("ParallelNT differs from NT by %g", d)
	}
}

// TestParallelTNMatchesTN runs ParallelTN at a shape large enough to
// fan out (m·n·k ≥ 2²⁰) and requires TN's exact bits: the workers split
// the same blocks the serial kernel walks, and each C tile still sums
// its k panels in one order.
func TestParallelTNMatchesTN(t *testing.T) {
	m, n, k := 130, 110, 90
	r := tensor.NewRNG(7)
	at := randMat(r, k, m)
	b := randMat(r, k, n)
	c1 := randMat(r, m, n)
	c2 := append([]float32(nil), c1...)
	TN(new(workspace.Arena), 1.5, at, b, 0.5, c1, m, n, k)
	ParallelTN(new(workspace.Arena), 1.5, at, b, 0.5, c2, m, n, k)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("ParallelTN differs from TN at %d: %g vs %g", i, c2[i], c1[i])
		}
	}
}

// TestDistributive checks the algebraic property A*(B+C) = A*B + A*C.
func TestDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, n, k := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		c := randMat(r, k, n)
		bc := make([]float32, k*n)
		for i := range bc {
			bc[i] = b[i] + c[i]
		}
		out1 := make([]float32, m*n)
		Parallel(1, a, bc, 0, out1, m, n, k)
		out2 := make([]float32, m*n)
		Parallel(1, a, b, 0, out2, m, n, k)
		Parallel(1, a, c, 1, out2, m, n, k)
		return maxDiff(out1, out2) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScalarPullOut checks (alpha*A)*B == alpha*(A*B).
func TestScalarPullOut(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, n, k := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		out1 := make([]float32, m*n)
		Blocked(new(workspace.Arena), 2.5, a, b, 0, out1, m, n, k)
		scaled := make([]float32, len(a))
		for i := range a {
			scaled[i] = 2.5 * a[i]
		}
		out2 := make([]float32, m*n)
		Blocked(new(workspace.Arena), 1, scaled, b, 0, out2, m, n, k)
		return maxDiff(out1, out2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBetaZeroOverwritesGarbage(t *testing.T) {
	m, n, k := 4, 4, 4
	r := tensor.NewRNG(7)
	a, b := randMat(r, m, k), randMat(r, k, n)
	nan := float32(math.NaN())
	c1 := make([]float32, m*n)
	c2 := []float32{nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan}
	Blocked(new(workspace.Arena), 1, a, b, 0, c1, m, n, k)
	Blocked(new(workspace.Arena), 1, a, b, 0, c2, m, n, k)
	if d := maxDiff(c1, c2); d != 0 || math.IsNaN(float64(c2[0])) {
		t.Fatal("beta=0 must overwrite pre-existing NaNs")
	}
}

func TestTooSmallBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on undersized buffer")
		}
	}()
	Naive(1, make([]float32, 3), make([]float32, 4), 0, make([]float32, 4), 2, 2, 2)
}

func TestFLOPs(t *testing.T) {
	if FLOPs(2, 3, 4) != 48 {
		t.Fatalf("FLOPs = %v, want 48", FLOPs(2, 3, 4))
	}
}

func TestCMulAccPointwiseConj(t *testing.T) {
	a := []complex64{complex(1, 2)}
	b := []complex64{complex(3, 4)}
	c := []complex64{0}
	CMulAccPointwise(c, a, b, true)
	// (1+2i)*(3-4i) = 3-4i+6i+8 = 11+2i
	if c[0] != complex(11, 2) {
		t.Fatalf("conj pointwise got %v, want 11+2i", c[0])
	}
	c[0] = 0
	CMulAccPointwise(c, a, b, false)
	// (1+2i)*(3+4i) = 3+4i+6i-8 = -5+10i
	if c[0] != complex(-5, 10) {
		t.Fatalf("plain pointwise got %v, want -5+10i", c[0])
	}
}

func TestCMulAccPointwiseLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	CMulAccPointwise(make([]complex64, 2), make([]complex64, 3), make([]complex64, 3), false)
}

// TestAssociativity checks (A·B)·C == A·(B·C) within float32 noise.
func TestAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, n, k, l := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		c := randMat(r, n, l)
		ab := make([]float32, m*n)
		Blocked(new(workspace.Arena), 1, a, b, 0, ab, m, n, k)
		abc1 := make([]float32, m*l)
		Blocked(new(workspace.Arena), 1, ab, c, 0, abc1, m, l, n)
		bc := make([]float32, k*l)
		Blocked(new(workspace.Arena), 1, b, c, 0, bc, k, l, n)
		abc2 := make([]float32, m*l)
		Blocked(new(workspace.Arena), 1, a, bc, 0, abc2, m, l, k)
		return maxDiff(abc1, abc2) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGEMMTransposeIdentity: (A·B)ᵀ == Bᵀ·Aᵀ via the NT/TN kernels.
func TestGEMMConsistencyAcrossKernels(t *testing.T) {
	m, n, k := 9, 11, 7
	r := tensor.NewRNG(77)
	a := randMat(r, m, k)
	b := randMat(r, k, n)
	want := make([]float32, m*n)
	Naive(1, a, b, 0, want, m, n, k)
	// The same product through Blocked and Parallel.
	got1 := make([]float32, m*n)
	Blocked(new(workspace.Arena), 1, a, b, 0, got1, m, n, k)
	got2 := make([]float32, m*n)
	Parallel(1, a, b, 0, got2, m, n, k)
	if maxDiff(want, got1) > 1e-4 || maxDiff(want, got2) > 1e-4 {
		t.Fatal("kernel variants disagree")
	}
}
