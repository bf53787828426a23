package fft

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"gpucnn/internal/tensor"
)

// TestHermitianSymmetry: the DFT of a real signal satisfies
// X[k] = conj(X[n-k]).
func TestHermitianSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 << (2 + r.Intn(6))
		x := make([]complex64, n)
		for i := range x {
			x[i] = complex(2*r.Float32()-1, 0)
		}
		NewPlan(n).Forward(x)
		for k := 1; k < n; k++ {
			a := x[k]
			b := x[n-k]
			if math.Abs(float64(real(a)-real(b))) > 1e-3 ||
				math.Abs(float64(imag(a)+imag(b))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShiftTheorem: a circular shift multiplies the spectrum by a
// phase factor; magnitudes are invariant.
func TestShiftTheorem(t *testing.T) {
	n := 64
	r := tensor.NewRNG(21)
	x := randSignal(r, n)
	shifted := make([]complex64, n)
	for i := range x {
		shifted[(i+5)%n] = x[i]
	}
	p := NewPlan(n)
	X := append([]complex64(nil), x...)
	S := append([]complex64(nil), shifted...)
	p.Forward(X)
	p.Forward(S)
	for k := 0; k < n; k++ {
		magX := math.Hypot(float64(real(X[k])), float64(imag(X[k])))
		magS := math.Hypot(float64(real(S[k])), float64(imag(S[k])))
		if math.Abs(magX-magS) > 1e-3 {
			t.Fatalf("bin %d magnitude changed under shift: %v vs %v", k, magX, magS)
		}
	}
}

// TestPlanIsConcurrencySafe: a single plan may be used from many
// goroutines on separate buffers (the convolution engines do exactly
// this through par.ForEach).
func TestPlanIsConcurrencySafe(t *testing.T) {
	p := NewPlan(256)
	r := tensor.NewRNG(22)
	inputs := make([][]complex64, 32)
	want := make([][]complex64, 32)
	for i := range inputs {
		inputs[i] = randSignal(r, 256)
		want[i] = append([]complex64(nil), inputs[i]...)
		p.Forward(want[i])
	}
	var wg sync.WaitGroup
	got := make([][]complex64, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := append([]complex64(nil), inputs[i]...)
			p.Forward(buf)
			got[i] = buf
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if cdist(got[i], want[i]) != 0 {
			t.Fatalf("concurrent transform %d differs", i)
		}
	}
}

// TestDIFInverseRoundTrip: the DIF forward transform of difRows
// composed with the DIT inverse of ditRows is the identity, and so is
// it composed with the naive inverse DFT.
func TestDIFInverseRoundTrip(t *testing.T) {
	n := 128
	r := tensor.NewRNG(23)
	x := randSignal(r, n)
	p := NewPlan(n)
	y := append([]complex64(nil), x...)
	forwardDIF(p, y)
	z := DFTNaive(y, true)
	inverseDIT(p, y)
	if d := cdist(x, y); d > 1e-4 {
		t.Fatalf("DIF/inverse round trip error %g", d)
	}
	if d := cdist(x, z); d > 1e-4 {
		t.Fatalf("DIF/naive inverse round trip error %g", d)
	}
}

// TestLengthOnePlan: n=1 must be the identity transform.
func TestLengthOnePlan(t *testing.T) {
	p := NewPlan(1)
	x := []complex64{complex(3, -2)}
	p.Forward(x)
	if x[0] != complex(3, -2) {
		t.Fatalf("length-1 forward = %v", x[0])
	}
	inverseDIT(p, x)
	if x[0] != complex(3, -2) {
		t.Fatalf("length-1 inverse = %v", x[0])
	}
}

// Test2DLinearity on the 2-D transform.
func Test2DLinearity(t *testing.T) {
	n := 16
	r := tensor.NewRNG(24)
	a := randSignal(r, n*n)
	b := randSignal(r, n*n)
	sum := make([]complex64, n*n)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	p := NewPlan2D(n)
	p.Forward(sum)
	p.Forward(a)
	p.Forward(b)
	for i := range a {
		a[i] += b[i]
	}
	if d := cdist(sum, a); d > 1e-2 {
		t.Fatalf("2-D linearity violated: %g", d)
	}
}
