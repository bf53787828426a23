package gemm

import (
	"math"
	"math/rand"
	"testing"

	"gpucnn/internal/workspace"
)

// FuzzPackedGEMM drives the packing routines and micro-kernel with
// fuzzer-chosen shapes and data seeds, comparing against the Naive
// oracle. The shape space is folded into [1, 40] per dimension so the
// fuzzer explores tile-edge interactions rather than giant products.
func FuzzPackedGEMM(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(7), int64(1))
	f.Add(uint8(8), uint8(8), uint8(8), int64(2))
	f.Add(uint8(9), uint8(7), uint8(16), int64(3))
	f.Add(uint8(1), uint8(1), uint8(1), int64(4))
	f.Add(uint8(17), uint8(33), uint8(40), int64(5))
	f.Fuzz(func(t *testing.T, mm, nn, kk uint8, seed int64) {
		m := int(mm)%40 + 1
		n := int(nn)%40 + 1
		k := int(kk)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		for i := range want {
			v := float32(rng.NormFloat64())
			want[i], got[i] = v, v
		}
		Naive(1.5, a, b, 0.25, want, m, n, k)
		Blocked(new(workspace.Arena), 1.5, a, b, 0.25, got, m, n, k)
		limit := 1e-4 * math.Sqrt(float64(k)+1)
		for i := range want {
			if d := math.Abs(float64(want[i] - got[i])); d > limit {
				t.Fatalf("m=%d n=%d k=%d: c[%d] diff %g (want %v got %v)", m, n, k, i, d, want[i], got[i])
			}
		}
	})
}
