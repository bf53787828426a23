package fft

import (
	"math"
	"testing"
	"testing/quick"

	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

func cdist(a, b []complex64) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		v := math.Hypot(float64(real(d)), float64(imag(d)))
		if v > m {
			m = v
		}
	}
	return m
}

func randSignal(r *tensor.RNG, n int) []complex64 {
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(2*r.Float32()-1, 2*r.Float32()-1)
	}
	return x
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 127: 128, 128: 128, 129: 256, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) should be true", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 100} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) should be false", n)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		r := tensor.NewRNG(uint64(n))
		x := randSignal(r, n)
		want := DFTNaive(x, false)
		got := append([]complex64(nil), x...)
		NewPlan(n).Forward(got)
		if d := cdist(got, want); d > 1e-3 {
			t.Fatalf("n=%d: FFT differs from DFT by %g", n, d)
		}
	}
}

func TestDIFMatchesDIT(t *testing.T) {
	for _, n := range []int{2, 8, 32, 128} {
		r := tensor.NewRNG(uint64(100 + n))
		x := randSignal(r, n)
		p := NewPlan(n)
		a := append([]complex64(nil), x...)
		b := append([]complex64(nil), x...)
		p.Forward(a)
		p.ForwardDIF(b)
		if d := cdist(a, b); d > 1e-3 {
			t.Fatalf("n=%d: DIF differs from DIT by %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 << (1 + r.Intn(8))
		x := randSignal(r, n)
		p := NewPlan(n)
		y := append([]complex64(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		return cdist(x, y) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 << (1 + r.Intn(6))
		x := randSignal(r, n)
		y := randSignal(r, n)
		p := NewPlan(n)
		sum := make([]complex64, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		p.Forward(sum)
		p.Forward(x)
		p.Forward(y)
		for i := range x {
			x[i] += y[i]
		}
		return cdist(sum, x) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2
	n := 128
	r := tensor.NewRNG(9)
	x := randSignal(r, n)
	var timeE float64
	for _, v := range x {
		timeE += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
	}
	NewPlan(n).Forward(x)
	var freqE float64
	for _, v := range x {
		freqE += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
	}
	if rel := math.Abs(timeE-freqE/float64(n)) / timeE; rel > 1e-4 {
		t.Fatalf("Parseval violated: time=%g freq/n=%g", timeE, freqE/float64(n))
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	n := 64
	x := make([]complex64, n)
	x[0] = 1
	NewPlan(n).Forward(x)
	for i, v := range x {
		if math.Hypot(float64(real(v)-1), float64(imag(v))) > 1e-5 {
			t.Fatalf("impulse bin %d = %v, want 1", i, v)
		}
	}
}

func TestNonPow2PlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two plan")
		}
	}()
	NewPlan(12)
}

func TestWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input length")
		}
	}()
	NewPlan(8).Forward(make([]complex64, 4))
}

func Test2DRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 << (1 + r.Intn(5))
		x := randSignal(r, n*n)
		p := NewPlan2D(n)
		y := append([]complex64(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		return cdist(x, y) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func Test2DSeparability(t *testing.T) {
	// 2-D DFT of f(r,c) = g(r)*h(c) equals G(r)·H(c) outer product.
	n := 16
	r := tensor.NewRNG(10)
	g := randSignal(r, n)
	h := randSignal(r, n)
	grid := make([]complex64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			grid[i*n+j] = g[i] * h[j]
		}
	}
	NewPlan2D(n).Forward(grid)
	p := NewPlan(n)
	G := append([]complex64(nil), g...)
	H := append([]complex64(nil), h...)
	p.Forward(G)
	p.Forward(H)
	want := make([]complex64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i*n+j] = G[i] * H[j]
		}
	}
	if d := cdist(grid, want); d > 1e-2 {
		t.Fatalf("2-D separability violated: %g", d)
	}
}

func TestForwardRealPadding(t *testing.T) {
	// A real 2x2 image in an 8x8 grid: DC bin must equal the pixel sum.
	img := []float32{1, 2, 3, 4}
	p := NewPlan2D(8)
	grid := make([]complex64, p.Bins())
	p.ForwardHalf(img, 2, 2, grid, make([]complex64, 8))
	if math.Abs(float64(real(grid[0]))-10) > 1e-4 || math.Abs(float64(imag(grid[0]))) > 1e-4 {
		t.Fatalf("DC bin = %v, want 10", grid[0])
	}
}

func TestInverseRealIntoOffset(t *testing.T) {
	// Forward then inverse with an offset crop recovers the shifted image.
	n := 8
	img := make([]float32, n*n)
	r := tensor.NewRNG(11)
	for i := range img {
		img[i] = r.Float32()
	}
	p := NewPlan2D(n)
	grid := make([]complex64, p.Bins())
	scratch := make([]complex64, n)
	p.ForwardHalf(img, n, n, grid, scratch)
	out := make([]float32, 4*4)
	p.InverseHalf(grid, out, 4, 4, 2, 3, scratch)
	for rr := 0; rr < 4; rr++ {
		for cc := 0; cc < 4; cc++ {
			want := img[(rr+2)*n+cc+3]
			if math.Abs(float64(out[rr*4+cc]-want)) > 1e-4 {
				t.Fatalf("offset crop wrong at (%d,%d)", rr, cc)
			}
		}
	}
}

// TestBatchForwardRealMatchesSerial transforms images concurrently
// through one shared plan, each worker with its own scratch, and
// requires bit-identical grids to a serial pass.
func TestBatchForwardRealMatchesSerial(t *testing.T) {
	p := NewPlan2D(16)
	r := tensor.NewRNG(12)
	images := make([][]float32, 9)
	for i := range images {
		images[i] = make([]float32, 10*12)
		for j := range images[i] {
			images[i][j] = r.Float32()
		}
	}
	batch := make([][]complex64, len(images))
	par.ForEach(len(images), func(i int) {
		batch[i] = make([]complex64, p.Bins())
		p.ForwardHalf(images[i], 10, 12, batch[i], make([]complex64, p.N()))
	})
	want := make([]complex64, p.Bins())
	scratch := make([]complex64, p.N())
	for i := range images {
		p.ForwardHalf(images[i], 10, 12, want, scratch)
		if d := cdist(batch[i], want); d != 0 {
			t.Fatalf("batch transform %d differs by %g", i, d)
		}
	}
}

func TestFLOPCounts(t *testing.T) {
	if FLOPs1D(1) != 0 {
		t.Fatal("length-1 transform should be free")
	}
	if got := FLOPs1D(8); got != 5*8*3 {
		t.Fatalf("FLOPs1D(8) = %v, want 120", got)
	}
	if got := FLOPs2D(8); got != 2*8*120 {
		t.Fatalf("FLOPs2D(8) = %v, want 1920", got)
	}
}

func TestConvolutionTheorem(t *testing.T) {
	// Circular 2-D convolution through half-spectrum grids equals direct
	// circular convolution.
	n := 16
	r := tensor.NewRNG(13)
	x := make([]float32, n*n)
	h := make([]float32, n*n)
	for i := range x {
		x[i] = 2*r.Float32() - 1
		h[i] = 2*r.Float32() - 1
	}
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					want[i*n+j] += float64(x[u*n+v]) * float64(h[((i-u+n)%n)*n+(j-v+n)%n])
				}
			}
		}
	}
	p := NewPlan2D(n)
	scratch := make([]complex64, n)
	X := make([]complex64, p.Bins())
	H := make([]complex64, p.Bins())
	p.ForwardHalf(x, n, n, X, scratch)
	p.ForwardHalf(h, n, n, H, scratch)
	for i := range X {
		X[i] *= H[i]
	}
	got := make([]float32, n*n)
	p.InverseHalf(X, got, n, n, 0, 0, scratch)
	for i := range got {
		if math.Abs(float64(got[i])-want[i]) > 1e-3 {
			t.Fatalf("convolution theorem violated at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
