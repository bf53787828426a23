package gemm

import (
	"math/rand"
	"testing"

	"gpucnn/internal/workspace"
)

// materializedB wraps a row-major k×n matrix as a BPacker, generating
// panels by straight copy — the reference for the virtual plumbing.
func materializedB(b []float32, n int) PackBFunc {
	return func(dst []float32, ldp, p0, kc, j0, nv int) {
		for p := 0; p < kc; p++ {
			src := b[(p0+p)*n+j0:]
			d := dst[p*ldp:]
			for c := 0; c < nv; c++ {
				d[c] = src[c]
			}
		}
	}
}

func TestBlockedVirtualBMatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 7, 8, 17, 70} {
		for _, n := range []int{1, 9, 64, 65} {
			for _, k := range []int{1, 8, 40, 127} {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				want := randSlice(rng, m*n)
				got := append([]float32(nil), want...)
				Blocked(new(workspace.Arena), 1.2, a, b, 0.3, want, m, n, k)
				BlockedVirtualB(new(workspace.Arena), 1.2, a, materializedB(b, n), 0.3, got, m, n, k)
				if d := maxAbsDiff(want, got); d > tol(k) {
					t.Fatalf("virtual-B mismatch m=%d n=%d k=%d: max diff %g", m, n, k, d)
				}
			}
		}
	}
}

func TestParallelVirtualBMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Big enough that gemmWorkers picks the parallel path on
	// multi-core hosts; on single-core runners this still exercises
	// the workers==1 virtual dispatch.
	const m, n, k = 160, 96, 96
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := make([]float32, m*n)
	got := make([]float32, m*n)
	Blocked(new(workspace.Arena), 1, a, b, 0, want, m, n, k)
	ParallelVirtualB(new(workspace.Arena), 1, a, materializedB(b, n), 0, got, m, n, k)
	if d := maxAbsDiff(want, got); d > tol(k) {
		t.Fatalf("parallel virtual-B mismatch: max diff %g", d)
	}
}

// TestVirtualForcedParallelPartitioning drives the macro-loop
// partitioning directly with forced worker counts — on a single-core
// runner the wall-clock cannot scale, but every (ic, jr) partition
// shape must still produce exact panel coverage.
func TestVirtualForcedParallelPartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const m, n, k = 96, 80, 64
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := make([]float32, m*n)
	Blocked(new(workspace.Arena), 1, a, b, 0, want, m, n, k)
	for _, workers := range []int{2, 3, 4, 7, 8, 16} {
		got := make([]float32, m*n)
		packedGEMM(new(workspace.Arena), workers, 1, matA(a, k), virtB(materializedB(b, n)), got, m, n, k)
		if d := maxAbsDiff(want, got); d > tol(k) {
			t.Fatalf("workers=%d: mismatch %g", workers, d)
		}
	}
}
