package fft

import (
	"testing"

	"gpucnn/internal/tensor"
)

// FuzzRoundTrip drives the forward/inverse identity with fuzzed seeds
// and transform sizes, for the 1-D complex pair and the half-spectrum
// 2-D real pair; under plain `go test` the seed corpus runs as unit
// cases, and `go test -fuzz=FuzzRoundTrip` explores further.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(4))
	f.Add(uint64(42), uint8(7))
	f.Add(uint64(12345), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, logN uint8) {
		n := 1 << (uint(logN)%9 + 1) // 2..512
		r := tensor.NewRNG(seed)
		x := make([]complex64, n)
		for i := range x {
			x[i] = complex(2*r.Float32()-1, 2*r.Float32()-1)
		}
		p := NewPlan(n)
		y := append([]complex64(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := cdist(x, y); d > 1e-3 {
			t.Fatalf("n=%d seed=%d: round-trip error %g", n, seed, d)
		}
		// DIF must agree with DIT on the same input.
		a := append([]complex64(nil), x...)
		b := append([]complex64(nil), x...)
		p.Forward(a)
		p.ForwardDIF(b)
		if d := cdist(a, b); d > 1e-3 {
			t.Fatalf("n=%d seed=%d: DIF/DIT mismatch %g", n, seed, d)
		}
		// Half-spectrum 2-D pair on an n2×n2 plan (1..128): any image
		// extent, cropped back through any in-range window.
		n2 := 1 << (uint(logN) % 8)
		h, w := 1+r.Intn(n2), 1+r.Intn(n2)
		oh, ow := 1+r.Intn(n2), 1+r.Intn(n2)
		checkRoundTrip(t, NewPlan2D(n2), randImage(r, h, w), h, w, oh, ow, r.Intn(n2-oh+1), r.Intn(n2-ow+1))
	})
}
