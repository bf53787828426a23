package workspace

import (
	"sync"
	"testing"
)

func TestCarvesAreDisjoint(t *testing.T) {
	a := Get()
	defer Put(a)
	x := a.Float32(100)
	y := a.Float32(100)
	for i := range x {
		x[i] = 1
	}
	for _, v := range y {
		if v != 0 {
			t.Fatalf("writes to one carve leaked into another")
		}
	}
	x2 := a.Complex64(50)
	y2 := a.Complex64(50)
	for i := range x2 {
		x2[i] = 1
	}
	for _, v := range y2 {
		if v != 0 {
			t.Fatalf("complex carves alias")
		}
	}
}

func TestFloat32IsZeroed(t *testing.T) {
	a := Get()
	s := a.Float32Uninit(64)
	for i := range s {
		s[i] = 42
	}
	Put(a)
	b := Get()
	defer Put(b)
	z := b.Float32(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Float32 carve not zeroed at %d: %v", i, v)
		}
	}
}

func TestCarveCapacityIsClipped(t *testing.T) {
	a := Get()
	defer Put(a)
	s := a.Float32(10)
	if cap(s) != 10 {
		t.Fatalf("carve capacity %d exceeds requested length 10: append could clobber the next carve", cap(s))
	}
}

func TestGrowKeepsOldCarvesValid(t *testing.T) {
	a := Get()
	defer Put(a)
	first := a.Float32(8)
	for i := range first {
		first[i] = float32(i)
	}
	// Force a slab replacement.
	a.Float32(1 << 20)
	for i, v := range first {
		if v != float32(i) {
			t.Fatalf("pre-grow carve corrupted at %d: %v", i, v)
		}
	}
}

// TestOneCycleSizesSlabForTheCycle replays a carve sequence whose
// middle carve forces a grow and whose last carve still fits after it:
// the second cycle must fit the slabs the first one left, so a pass
// needs a single warm-up call whatever capacity its arena arrived with.
func TestOneCycleSizesSlabForTheCycle(t *testing.T) {
	var a Arena
	cycle := func() {
		a.Reset()
		a.Float32Uninit(1000)
		a.Float32Uninit(3000)
		a.Float32Uninit(1000)
		a.Complex64Uninit(1000)
		a.Complex64Uninit(3000)
		a.Complex64Uninit(1000)
	}
	cycle()
	f32, c64 := &a.f32[0], &a.c64[0]
	cycle()
	if &a.f32[0] != f32 || &a.c64[0] != c64 {
		t.Fatalf("second cycle regrew a slab (float32 %d, complex64 %d elements)", len(a.f32), len(a.c64))
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	// Warm the pool and the slab capacity.
	for i := 0; i < 3; i++ {
		a := Get()
		a.Float32(4096)
		a.Complex64(2048)
		Put(a)
	}
	allocs := testing.AllocsPerRun(20, func() {
		a := Get()
		a.Float32Uninit(4096)
		a.Complex64Uninit(2048)
		Put(a)
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %v times", allocs)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := Get()
				s := a.Float32(128)
				for j := range s {
					s[j] = float32(seed)
				}
				for _, v := range s {
					if v != float32(seed) {
						t.Errorf("arena shared across goroutines: got %v want %d", v, seed)
						break
					}
				}
				Put(a)
			}
		}(g)
	}
	wg.Wait()
}
