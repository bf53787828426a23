package fft

import (
	"math"
	"sync"
	"testing"
)

// TestPlanForReturnsSharedInstance verifies the cache hands every
// caller the same plan pointer for a size, including under concurrent
// first use.
func TestPlanForReturnsSharedInstance(t *testing.T) {
	const n = 64
	const goroutines = 16
	got := make([]*Plan, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			got[g] = PlanFor(n)
		}(g)
	}
	start.Done()
	done.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("PlanFor(%d) returned distinct plans under concurrency", n)
		}
	}
	if got[0] != PlanFor(n) {
		t.Fatalf("PlanFor(%d) not cached across calls", n)
	}
}

func TestPlan2DForReturnsSharedInstance(t *testing.T) {
	if Plan2DFor(32) != Plan2DFor(32) {
		t.Fatalf("Plan2DFor(32) not cached")
	}
	if Plan2DFor(32) == Plan2DFor(64) {
		t.Fatalf("Plan2DFor conflates sizes")
	}
}

// TestCachedPlanMatchesOracle runs a cached plan against the naive DFT
// to confirm cached twiddle tables are the correct ones.
func TestCachedPlanMatchesOracle(t *testing.T) {
	for _, n := range []int{2, 8, 32, 128} {
		p := PlanFor(n)
		x := make([]complex64, n)
		for i := range x {
			x[i] = complex(float32(i%5)-2, float32(i%3)-1)
		}
		want := DFTNaive(x, false)
		got := append([]complex64(nil), x...)
		p.Forward(got)
		for i := range want {
			if d := cmplxAbsDiff(want[i], got[i]); d > 1e-3*float64(n) {
				t.Fatalf("n=%d: cached plan diverges from DFT oracle at %d (want %v got %v)", n, i, want[i], got[i])
			}
		}
	}
}

// TestConcurrentTransformsShareOnePlan hammers one cached plan from
// many goroutines; failures here (or under -race) would indicate the
// plan is not read-only.
func TestConcurrentTransformsShareOnePlan(t *testing.T) {
	const n = 64
	p := PlanFor(n)
	ref := make([]complex64, n)
	for i := range ref {
		ref[i] = complex(float32(i), float32(-i))
	}
	want := DFTNaive(ref, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				x := append([]complex64(nil), ref...)
				p.Forward(x)
				for i := range want {
					if d := cmplxAbsDiff(want[i], x[i]); d > 1e-2*float64(n) {
						t.Errorf("concurrent transform diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func cmplxAbsDiff(a, b complex64) float64 {
	return math.Hypot(float64(real(a)-real(b)), float64(imag(a)-imag(b)))
}

// TestForwardRealIntoClearsPadRegion feeds a dirty grid and dirty
// scratch through ForwardHalf and checks the result equals a transform
// into clean buffers — i.e. every bin is overwritten and no padding is
// read, which is what lets callers pass uninitialised arena carve-outs.
func TestForwardRealIntoClearsPadRegion(t *testing.T) {
	const n, h, w = 16, 5, 3
	p := Plan2DFor(n)
	img := make([]float32, h*w)
	for i := range img {
		img[i] = float32(i + 1)
	}
	clean := make([]complex64, p.Bins())
	p.ForwardHalf(img, h, w, clean, make([]complex64, n))
	dirty := make([]complex64, p.Bins())
	scratch := make([]complex64, n)
	for _, buf := range [][]complex64{dirty, scratch} {
		for i := range buf {
			buf[i] = complex(999, -999)
		}
	}
	p.ForwardHalf(img, h, w, dirty, scratch)
	for i := range clean {
		if d := cmplxAbsDiff(clean[i], dirty[i]); d > 1e-3 {
			t.Fatalf("dirty grid leaked into transform at %d: want %v got %v", i, clean[i], dirty[i])
		}
	}
}
