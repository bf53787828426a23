// Package workspace provides the scratch-memory arena shared by the
// compute kernels. The convolution engines need large per-call buffers
// (im2col column matrices, FFT grids, GEMM packing panels); allocating
// them per call makes the garbage collector a hot-path participant.
// An Arena is a growable slab checked out of a process-wide sync.Pool:
// a worker Gets one, carves typed sub-buffers off it, and Puts it back,
// so steady-state passes perform zero heap allocations — the workspace
// discipline of cuDNN (caller-provided workspace) and the memory-pool
// designs of arXiv:1610.03618.
//
// Usage pattern:
//
//	ws := workspace.Get()
//	defer workspace.Put(ws)
//	col := ws.Float32Uninit(rows * cols) // fully overwritten by caller
//	acc := ws.Complex64(n * n)           // cleared carve-out
//
// Carve-outs are only valid until the arena is Put (or Reset); they must
// not be retained. Arenas are not safe for concurrent use — each
// goroutine checks out its own.
package workspace

import (
	"sync"
	"sync/atomic"
)

// Arena is a growable scratch slab handing out typed carve-outs. The
// zero value is ready to use.
type Arena struct {
	f32        []float32
	c64        []complex64
	f32off     int
	c64off     int
	cycleBytes int64 // bytes carved since Get, for the high-water stat
}

// Package-wide arena statistics (atomic: arenas are per-goroutine but
// the pool is shared). A carve that fits the checked-out slab is a hit;
// one that forces a slab grow is a miss — steady state should be
// all-hits, and the high-water mark is the largest single Get/Put
// cycle's carved footprint (the number the fused im2col path shrinks).
var (
	statGets      atomic.Int64
	statPuts      atomic.Int64
	statCarves    atomic.Int64
	statGrows     atomic.Int64
	statHighWater atomic.Int64
)

// Stats is a snapshot of the arena pool counters.
type Stats struct {
	Gets           int64 // arena checkouts
	Puts           int64 // arena returns
	Carves         int64 // typed carve-out requests
	SlabGrows      int64 // carves that had to grow a slab (pool misses)
	HighWaterBytes int64 // largest bytes carved in one Get/Put cycle
}

// Hits returns the carves served from already-grown slabs.
func (s Stats) Hits() int64 { return s.Carves - s.SlabGrows }

// ReadStats snapshots the pool counters.
func ReadStats() Stats {
	return Stats{
		Gets:           statGets.Load(),
		Puts:           statPuts.Load(),
		Carves:         statCarves.Load(),
		SlabGrows:      statGrows.Load(),
		HighWaterBytes: statHighWater.Load(),
	}
}

// ResetStats zeroes the pool counters (tests and dashboard epochs).
func ResetStats() {
	statGets.Store(0)
	statPuts.Store(0)
	statCarves.Store(0)
	statGrows.Store(0)
	statHighWater.Store(0)
}

var pool = sync.Pool{New: func() any { return new(Arena) }}

// Get checks an empty arena out of the shared pool. Pair with Put.
func Get() *Arena {
	a := pool.Get().(*Arena)
	a.Reset()
	statGets.Add(1)
	return a
}

// Put returns the arena — and its grown capacity — to the pool. All
// carve-outs handed out since Get become invalid.
func Put(a *Arena) {
	statPuts.Add(1)
	for {
		cur := statHighWater.Load()
		if a.cycleBytes <= cur || statHighWater.CompareAndSwap(cur, a.cycleBytes) {
			break
		}
	}
	pool.Put(a)
}

// Reset invalidates all carve-outs while keeping the backing capacity.
func (a *Arena) Reset() {
	a.f32off, a.c64off = 0, 0
	a.cycleBytes = 0
}

// Float32Uninit carves n float32s of scratch without clearing them. Use
// when the caller overwrites the whole buffer (im2col, packing panels).
func (a *Arena) Float32Uninit(n int) []float32 {
	statCarves.Add(1)
	a.cycleBytes += int64(n) * 4
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
	statCarves.Add(1)
	a.cycleBytes += int64(n) * 8
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
// the old slab (still valid until Put). The carve that forced the grow
// keeps its offset in the cycle, so the new slab is sized for the whole
// cycle so far: after one cycle the slab holds every carve of that
// cycle, and a pass that repeats its carves stops allocating on its
// second call.
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
