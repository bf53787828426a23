package workspace

import "testing"

func TestCarvesAreDisjoint(t *testing.T) {
	var a Arena
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
	var a Arena
	s := a.Float32Uninit(64)
	for i := range s {
		s[i] = 42
	}
	a.Reset()
	z := a.Float32(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Float32 carve not zeroed at %d: %v", i, v)
		}
	}
}

func TestCarveCapacityIsClipped(t *testing.T) {
	var a Arena
	s := a.Float32(10)
	if cap(s) != 10 {
		t.Fatalf("carve capacity %d exceeds requested length 10: append could clobber the next carve", cap(s))
	}
}

func TestGrowKeepsOldCarvesValid(t *testing.T) {
	var a Arena
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
	var a Arena
	cycle := func() {
		a.Reset()
		a.Float32Uninit(4096)
		a.Complex64Uninit(2048)
		for _, c := range a.Children(2) {
			c.Reset()
			c.Float32Uninit(512)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %v times", allocs)
	}
}

// TestChildrenAreKept: a parent hands back the same children, grown
// slabs included, on every pass, and adds new ones only past the count
// it already has.
func TestChildrenAreKept(t *testing.T) {
	var a Arena
	kids := a.Children(2)
	kids[0].Float32(4096)
	slab := &kids[0].f32[0]
	again := a.Children(3)
	if again[0] != kids[0] || again[1] != kids[1] {
		t.Fatal("Children replaced an existing child")
	}
	again[0].Reset()
	again[0].Float32(4096)
	if &again[0].f32[0] != slab {
		t.Fatal("child slab regrew after the parent handed it back")
	}
	if len(a.Children(1)) != 1 {
		t.Fatal("Children(1) returned the wrong count")
	}
}

// TestLevelWarmsIdleChildren: a child that claimed no work in a pass
// gets the busiest sibling's slabs, so it can run the same work next
// pass without growing.
func TestLevelWarmsIdleChildren(t *testing.T) {
	var a Arena
	kids := a.Children(2)
	kids[0].Float32(3000)
	kids[0].Complex64(500)
	a.Level()
	ResetStats()
	kids[1].Reset()
	kids[1].Float32(3000)
	kids[1].Complex64(500)
	if g := ReadStats().SlabGrows; g != 0 {
		t.Fatalf("idle child grew %d slabs after Level", g)
	}
}
