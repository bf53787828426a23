package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		hits := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForEachNSerialFallback(t *testing.T) {
	sum := 0
	// workers=1 must run inline with no data race on the plain int.
	ForEachN(50, 1, func(i int) { sum += i })
	if sum != 49*50/2 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestForEachNZeroWorkersClampsToGOMAXPROCS is the regression test for
// the workers<=0 bug: a miscomputed 0 used to silently run serial. Two
// loop bodies rendezvous through an unbuffered-style channel pair;
// that can only complete if they run concurrently, i.e. if workers=0
// was clamped up to GOMAXPROCS rather than down to 1.
func TestForEachNZeroWorkersClampsToGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(old)
	}
	for _, workers := range []int{0, -3} {
		meet := make(chan int)
		done := make(chan struct{})
		go func() {
			defer close(done)
			ForEachN(2, workers, func(i int) {
				select {
				case meet <- i:
				case <-meet:
				}
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: loop bodies never ran concurrently — non-positive workers not clamped to GOMAXPROCS", workers)
		}
	}
}

// TestForEachNNegativeWorkersCoverAll double-checks index coverage on
// the clamped path.
func TestForEachNNegativeWorkersCoverAll(t *testing.T) {
	const n = 200
	hits := make([]int32, n)
	ForEachN(n, -1, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

// TestNestedForEachDoesNotDeadlock issues a parallel loop from inside a
// parallel loop; the submitter participates in its own task, so this
// must finish even when every pool worker is occupied.
func TestNestedForEachDoesNotDeadlock(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total int64
		ForEach(8, func(i int) {
			ForEach(8, func(j int) {
				atomic.AddInt64(&total, 1)
			})
		})
		if total != 64 {
			t.Errorf("nested loops ran %d bodies, want 64", total)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ForEach deadlocked")
	}
}

// TestConcurrentNestedForEachRunsEachIndexOnce drives many short
// nested loops from several goroutines at once, so pooled tasks are
// recycled while other loops are in flight: every index must run
// exactly once and every call must return.
func TestConcurrentNestedForEachRunsEachIndexOnce(t *testing.T) {
	const callers, rounds, outer, inner = 4, 50, 4, 16
	hits := make([]int32, callers*rounds*outer*inner)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForEachN(callers, callers, func(c int) {
			for r := 0; r < rounds; r++ {
				base := (c*rounds + r) * outer * inner
				ForEach(outer, func(o int) {
					ForEach(inner, func(i int) { atomic.AddInt32(&hits[base+o*inner+i], 1) })
				})
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent nested ForEach deadlocked")
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

type countRunner struct{ hits []int32 }

func (r *countRunner) Run(i int) { atomic.AddInt32(&r.hits[i], 1) }

func TestForEachRunnerCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100} {
		r := &countRunner{hits: make([]int32, n)}
		ForEachRunner(n, r)
		for i, h := range r.hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

type nopRunner struct{ sink int64 }

func (r *nopRunner) Run(i int) { atomic.AddInt64(&r.sink, int64(i)) }

// TestRunnerDispatchDoesNotAllocate is the zero-allocation contract the
// conv engines rely on: dispatching a pooled Runner through the
// persistent worker pool must not touch the heap once warm.
func TestRunnerDispatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	r := &nopRunner{}
	ForEachRunner(64, r) // warm pool and task cache
	allocs := testing.AllocsPerRun(50, func() {
		ForEachRunner(64, r)
	})
	if allocs != 0 {
		t.Fatalf("Runner dispatch allocates %v times per call", allocs)
	}
}

// slotRunner counts the claims of each item and the entries of each
// slot.
type slotRunner struct {
	Span
	claims  []int32
	entered []int32
}

func (r *slotRunner) Run(slot int) {
	atomic.AddInt32(&r.entered[slot], 1)
	for i, ok := r.Claim(); ok; i, ok = r.Claim() {
		atomic.AddInt32(&r.claims[i], 1)
	}
}

// TestSpanRunsEachSlotOnceAndEachItemOnce: ForEachSlot enters every slot
// exactly once, so slot-indexed scratch is never shared, and every item
// is claimed by exactly one slot.
func TestSpanRunsEachSlotOnceAndEachItemOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		r := &slotRunner{claims: make([]int32, n)}
		r.Reset(n)
		if want := max(min(runtime.GOMAXPROCS(0), n), 1); r.Slots() != want {
			t.Fatalf("n=%d: %d slots, want %d", n, r.Slots(), want)
		}
		r.entered = make([]int32, r.Slots())
		ForEachSlot(&r.Span, r)
		for s, e := range r.entered {
			if e != 1 {
				t.Fatalf("n=%d: slot %d entered %d times", n, s, e)
			}
		}
		for i, c := range r.claims {
			if c != 1 {
				t.Fatalf("n=%d: item %d claimed %d times", n, i, c)
			}
		}
	}
}
