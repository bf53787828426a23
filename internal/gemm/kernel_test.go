package gemm

import (
	"math"
	"math/rand"
	"testing"

	"gpucnn/internal/cpuid"
)

// setLevel makes every tile run the kernel of level l until the test
// ends, skipping the test where the host cannot run it.
func setLevel(t testing.TB, l cpuid.Level) {
	t.Helper()
	if l > cpuid.Host {
		t.Skipf("host runs kernels up to %v, not %v", cpuid.Host, l)
	}
	prev := level
	level = l
	t.Cleanup(func() { level = prev })
}

// forEachLevel runs f as one subtest per kernel level, each skipped on
// a host that lacks its instruction set.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	for l := cpuid.Go; l <= cpuid.AVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			setLevel(t, l)
			f(t)
		})
	}
}

// TestKernelsAgreeOnOnePanel feeds the same packed panels to every
// kernel. The AVX-512 and AVX2 kernels run the same FMAs in the same
// order, so their C must match bit for bit, and the AVX2 left-half
// edge kernel must match their left eight columns and leave the rest;
// the Go kernel rounds each product before adding it and must match
// within tol(k).
func TestKernelsAgreeOnOnePanel(t *testing.T) {
	if cpuid.Host < cpuid.AVX2 {
		t.Skip("host has no AVX2/FMA kernel")
	}
	rng := rand.New(rand.NewSource(31))
	const ldc = nr + 5
	for _, kc := range []int{1, 2, 3, 4, 5, 17, 192, 256} {
		ap := randSlice(rng, kc*mr)
		bp := randSlice(rng, kc*nr)
		c0 := randSlice(rng, mr*ldc)
		run := func(l cpuid.Level) []float32 {
			c := append([]float32(nil), c0...)
			switch l {
			case cpuid.AVX512:
				microKernelAVX512(kc, &ap[0], &bp[0], &c[0], ldc, 1.25)
			case cpuid.AVX2:
				microKernelAVX2(kc, &ap[0], &bp[0], &c[0], ldc, 1.25)
			default:
				microKernelGo(kc, ap, bp, c, ldc, 1.25, mr, nr)
			}
			return c
		}
		avx2, scalar := run(cpuid.AVX2), run(cpuid.Go)
		for i := range c0 {
			if i%ldc >= nr && avx2[i] != c0[i] {
				t.Fatalf("kc=%d: avx2 wrote C[%d] past the tile", kc, i)
			}
		}
		if d := maxAbsDiff(avx2, scalar); d > tol(kc) {
			t.Errorf("kc=%d: go kernel differs from avx2 by %g", kc, d)
		}
		half := append([]float32(nil), c0...)
		microKernelAVX2N8(kc, &ap[0], &bp[0], &half[0], ldc, 1.25)
		for i, v := range half {
			want := avx2[i]
			if i%ldc >= nr/2 {
				want = c0[i]
			}
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("kc=%d: C[%d] avx2 left half %v, want %v", kc, i, v, want)
			}
		}
		if cpuid.Host < cpuid.AVX512 {
			continue
		}
		for i, v := range run(cpuid.AVX512) {
			if math.Float32bits(v) != math.Float32bits(avx2[i]) {
				t.Fatalf("kc=%d: C[%d] avx512 %v, avx2 %v", kc, i, v, avx2[i])
			}
		}
	}
}
