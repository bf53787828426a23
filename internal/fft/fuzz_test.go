package fft

import (
	"testing"

	"gpucnn/internal/cpuid"
	"gpucnn/internal/tensor"
)

// FuzzRoundTrip drives the transforms with fuzzed seeds and sizes: the
// 1-D forward transforms against the naive DFT, against each other and
// back, and the half-spectrum 2-D real pair round trip, whose grid and
// window must also match the Go stages bit for bit at the host's level.
// Under plain `go test` the seed corpus runs as unit cases, and `go test
// -fuzz=FuzzRoundTrip` explores further.
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
		want := DFTNaive(x, false)
		a := append([]complex64(nil), x...)
		b := append([]complex64(nil), x...)
		p.Forward(a)
		forwardDIF(p, b)
		// Forward rounds with the DFT's size; the naive DFT sums in
		// float64.
		if d := cdist(a, want); d > 1e-5*float64(n) {
			t.Fatalf("n=%d seed=%d: DIT differs from the naive DFT by %g", n, seed, d)
		}
		if d := cdist(b, want); d > 1e-5*float64(n) {
			t.Fatalf("n=%d seed=%d: DIF differs from the naive DFT by %g", n, seed, d)
		}
		// DIF must agree with DIT on the same input.
		if d := cdist(a, b); d > 1e-3 {
			t.Fatalf("n=%d seed=%d: DIF/DIT mismatch %g", n, seed, d)
		}
		inverseDIT(p, b)
		if d := cdist(x, b); d > 1e-3 {
			t.Fatalf("n=%d seed=%d: round-trip error %g", n, seed, d)
		}
		// Half-spectrum 2-D pair on an n2×n2 plan (1..128): any image
		// extent, cropped back through any in-range window, at the
		// host's level and on the Go stages.
		n2 := 1 << (uint(logN) % 8)
		p2 := NewPlan2D(n2)
		h, w := 1+r.Intn(n2), 1+r.Intn(n2)
		oh, ow := 1+r.Intn(n2), 1+r.Intn(n2)
		offH, offW := r.Intn(n2-oh+1), r.Intn(n2-ow+1)
		img := randImage(r, h, w)
		checkRoundTrip(t, p2, img, h, w, oh, ow, offH, offW)
		scratch := make([]complex64, p2.ScratchLen())
		host, ref := make([]complex64, p2.Bins()), make([]complex64, p2.Bins())
		p2.ForwardHalf(img, h, w, host, scratch)
		atGo(func() { p2.ForwardHalf(img, h, w, ref, scratch) })
		if i := diffBins(host, ref); i >= 0 {
			t.Fatalf("n=%d image %dx%d: bin %d at %v is %v, on Go stages %v", n2, h, w, i, cpuid.Host, host[i], ref[i])
		}
		out, refOut := make([]float32, oh*ow), make([]float32, oh*ow)
		p2.InverseHalf(host, out, oh, ow, offH, offW, scratch)
		atGo(func() { p2.InverseHalf(ref, refOut, oh, ow, offH, offW, scratch) })
		if i := diffReals(out, refOut); i >= 0 {
			t.Fatalf("n=%d window %dx%d at (%d,%d): output %d at %v is %v, on Go stages %v",
				n2, oh, ow, offH, offW, i, cpuid.Host, out[i], refOut[i])
		}
	})
}
