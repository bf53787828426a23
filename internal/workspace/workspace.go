// Package workspace provides the scratch-memory arena of the compute
// kernels. The convolution engines need large per-call buffers (FFT
// grids, Winograd transform banks, GEMM packing panels); allocating
// them per call makes the garbage collector a hot-path participant.
//
// An Arena belongs to whoever runs the pass: each impls plan, nn.Conv
// (for its plan-less fallback) and nn.FC hold one for as long as they
// live, and hand it to the strategy functions and GEMM entries they
// call — cuDNN's caller-provided workspace, and the per-engine memory
// policy of the paper's Figure 5. A pass resets the arena on entry and
// carves everything from it; nothing below the pass takes a second
// arena. Once the slabs have grown to a pass's footprint, repeating the
// pass performs no heap allocation, on any core count.
//
// Usage pattern:
//
//	ws.Reset()
//	col := ws.Float32Uninit(rows * cols) // fully overwritten by caller
//	acc := ws.Complex64(n * n)           // cleared carve-out
//
// Carve-outs are only valid until the next Reset; they must not be
// retained. An Arena is not safe for concurrent use: a pass that fans
// out over workers carves each worker's share before dispatch, or
// gives each worker a child arena (Children, then Level).
package workspace

import "sync/atomic"

// Arena is a growable scratch slab handing out typed carve-outs. The
// zero value is ready to use.
type Arena struct {
	f32        []float32
	c64        []complex64
	f32off     int
	c64off     int
	cycleBytes int64 // bytes carved since the last Reset, for the high-water stat
	children   []*Arena
}

// Package-wide arena statistics (atomic: the arenas of concurrent
// workers update them together). A carve that fits the slab is a hit;
// one that forces a slab grow is a miss — steady state should be
// all-hits, and the high-water mark is the largest footprint any arena
// carved between two Resets.
var (
	statCarves    atomic.Int64
	statGrows     atomic.Int64
	statHighWater atomic.Int64
)

// Stats is a snapshot of the arena counters.
type Stats struct {
	Carves         int64 // typed carve-out requests
	SlabGrows      int64 // carves that had to grow a slab
	HighWaterBytes int64 // largest bytes carved in one Reset-to-Reset cycle
}

// Hits returns the carves served from already-grown slabs.
func (s Stats) Hits() int64 { return s.Carves - s.SlabGrows }

// ReadStats snapshots the arena counters.
func ReadStats() Stats {
	return Stats{
		Carves:         statCarves.Load(),
		SlabGrows:      statGrows.Load(),
		HighWaterBytes: statHighWater.Load(),
	}
}

// ResetStats zeroes the arena counters (tests and dashboard epochs).
func ResetStats() {
	statCarves.Store(0)
	statGrows.Store(0)
	statHighWater.Store(0)
}

// Reset invalidates all carve-outs while keeping the backing capacity.
// Children are not reset; their owners reset them.
func (a *Arena) Reset() {
	a.f32off, a.c64off = 0, 0
	a.cycleBytes = 0
}

// Children returns n child arenas for the workers of a fanned-out
// pass, one per worker slot. Children are created on first use and
// kept with the parent, so their grown slabs carry over to the next
// pass. Call it before dispatch, never from the workers.
func (a *Arena) Children(n int) []*Arena {
	for len(a.children) < n {
		a.children = append(a.children, new(Arena))
	}
	return a.children[:n]
}

// Level grows every child's slabs to the largest among the children.
// Workers claim items dynamically, so one pass may leave a slot that
// claimed nothing with cold slabs; after Level, any slot can run any
// item the pass ran without growing. Call it from the pass after
// dispatch, once the children's carve-outs are dead.
func (a *Arena) Level() {
	var f32, c64 int
	for _, k := range a.children {
		f32, c64 = max(f32, len(k.f32)), max(c64, len(k.c64))
	}
	for _, k := range a.children {
		if len(k.f32) < f32 {
			k.f32 = make([]float32, f32)
			statGrows.Add(1)
		}
		if len(k.c64) < c64 {
			k.c64 = make([]complex64, c64)
			statGrows.Add(1)
		}
	}
}

// carved records n bytes against the cycle and the high-water mark.
func (a *Arena) carved(n int64) {
	statCarves.Add(1)
	a.cycleBytes += n
	for {
		cur := statHighWater.Load()
		if a.cycleBytes <= cur || statHighWater.CompareAndSwap(cur, a.cycleBytes) {
			return
		}
	}
}

// Float32Uninit carves n float32s of scratch without clearing them. Use
// when the caller overwrites the whole buffer (im2col, packing panels).
func (a *Arena) Float32Uninit(n int) []float32 {
	a.carved(int64(n) * 4)
	if a.f32off+n > len(a.f32) {
		a.f32 = grow(a.f32, a.f32off+n)
		statGrows.Add(1)
	}
	s := a.f32[a.f32off : a.f32off+n : a.f32off+n]
	a.f32off += n
	return s
}

// Float32 carves n zeroed float32s of scratch.
func (a *Arena) Float32(n int) []float32 {
	s := a.Float32Uninit(n)
	clear(s)
	return s
}

// Complex64Uninit carves n complex64s of scratch without clearing them.
func (a *Arena) Complex64Uninit(n int) []complex64 {
	a.carved(int64(n) * 8)
	if a.c64off+n > len(a.c64) {
		a.c64 = grow(a.c64, a.c64off+n)
		statGrows.Add(1)
	}
	s := a.c64[a.c64off : a.c64off+n : a.c64off+n]
	a.c64off += n
	return s
}

// Complex64 carves n zeroed complex64s of scratch.
func (a *Arena) Complex64(n int) []complex64 {
	s := a.Complex64Uninit(n)
	clear(s)
	return s
}

// grow replaces a full backing slab. Earlier carve-outs keep aliasing
// the old slab (still valid until Reset). The carve that forced the
// grow keeps its offset in the cycle, so the new slab is sized for the
// whole cycle so far: after one cycle the slab holds every carve of
// that cycle, and a pass that repeats its carves stops allocating on
// its second call.
func grow[T any](old []T, need int) []T {
	size := 2 * len(old)
	if size < need {
		size = need
	}
	if size < 1024 {
		size = 1024
	}
	return make([]T, size)
}
