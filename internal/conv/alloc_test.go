package conv

import (
	"runtime"
	"testing"

	"gpucnn/internal/alloctest"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// tableIConfigs mirrors workload.TableI (the paper's Conv1–Conv5) at
// Batch=1: testing.AllocsPerRun forces GOMAXPROCS to 1 while measuring,
// so a full batch would only repeat the same serial code path 128 times
// slower. (workload itself imports conv, so the configs are restated
// here rather than imported.)
var tableIConfigs = []struct {
	name string
	cfg  Config
}{
	{"Conv1", Config{Batch: 1, Input: 128, Channels: 3, Filters: 96, Kernel: 11, Stride: 1}},
	{"Conv2", Config{Batch: 1, Input: 128, Channels: 64, Filters: 96, Kernel: 3, Stride: 1}},
	{"Conv3", Config{Batch: 1, Input: 32, Channels: 128, Filters: 128, Kernel: 9, Stride: 1}},
	{"Conv4", Config{Batch: 1, Input: 16, Channels: 128, Filters: 128, Kernel: 7, Stride: 1}},
	{"Conv5", Config{Batch: 1, Input: 13, Channels: 384, Filters: 384, Kernel: 3, Stride: 1}},
}

func allocTensors(cfg Config) (x, w, y, dx, dw, dy *tensor.Tensor) {
	x = tensor.New(cfg.InputShape()...)
	w = tensor.New(cfg.FilterShape()...)
	y = tensor.New(cfg.OutputShape()...)
	dx = tensor.New(cfg.InputShape()...)
	dw = tensor.New(cfg.FilterShape()...)
	dy = tensor.New(cfg.OutputShape()...)
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) - 2
	}
	for i := range dy.Data {
		dy.Data[i] = float32(i%3) - 1
	}
	return
}

// assertZeroAlloc warms f until the arena capacities converge, then
// requires a steady-state pass to stay off the heap entirely: the least
// of tries testing.AllocsPerRun readings must be 0. A reading counts
// every malloc in the process, so one made outside the pass can land in
// it; an allocation of the pass itself lands in every reading.
func assertZeroAlloc(t *testing.T, name string, tries int, f func()) {
	t.Helper()
	f()
	f()
	least := testing.AllocsPerRun(1, f)
	for i := 1; i < tries; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	if least != 0 {
		t.Errorf("%s: %v allocs per steady-state run, want 0", name, least)
	}
}

// TestUnrollZeroAllocTableI is the acceptance gate: Conv1–Conv5
// forward and backward through the unrolling engine must perform zero
// steady-state heap allocations. Its passes run for long enough that a
// malloc elsewhere in the process can land in one reading, so it takes
// the least of three.
func TestUnrollZeroAllocTableI(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	if testing.Short() {
		t.Skip("multi-GFLOP measurement, skipped in -short")
	}
	for _, tc := range tableIConfigs {
		x, w, y, dx, dw, dy := allocTensors(tc.cfg)
		var ws workspace.Arena
		assertZeroAlloc(t, tc.name+"/forward", 3, func() {
			UnrollForward(&ws, tc.cfg, x, w, y)
		})
		assertZeroAlloc(t, tc.name+"/backward-data", 3, func() {
			UnrollBackwardData(&ws, tc.cfg, dy, w, dx)
		})
		assertZeroAlloc(t, tc.name+"/backward-filter", 3, func() {
			UnrollBackwardFilter(&ws, tc.cfg, x, dy, dw)
		})
	}
}

// TestUnrollFannedZeroAlloc holds the batch-1 unroll passes to zero
// steady-state allocations where they fan each image's GEMM out over
// the pool, and the channel-split col2im of backward-data on its own. That branch needs more than one proc, so the count is read
// at the host's GOMAXPROCS (alloctest), not through AllocsPerRun, and
// the test skips on one proc.
func TestUnrollFannedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the fanned-out GEMM needs GOMAXPROCS ≥ 2")
	}
	for _, base := range fanConfigs {
		cfg := base
		cfg.Batch = 1
		x, w, y, dx, dw, dy := allocTensors(cfg)
		g := cfg.geom()
		col := make([]float32, g.ColRows()*g.ColCols())
		var ws workspace.Arena
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"forward", func() { UnrollForward(&ws, cfg, x, w, y) }},
			{"backward-data", func() { UnrollBackwardData(&ws, cfg, dy, w, dx) }},
			{"backward-filter", func() { UnrollBackwardFilter(&ws, cfg, x, dy, dw) }},
			{"col2im", func() { col2imFanned(g, col, dx.Data) }},
		} {
			if got := alloctest.Mallocs(3, tc.run); got != 0 {
				t.Errorf("%v %s: %d mallocs per steady-state run at GOMAXPROCS %d, want 0",
					cfg, tc.name, got, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// TestFFTZeroAllocAtGOMAXPROCS holds the three FFT passes to zero
// steady-state allocations at the host's GOMAXPROCS, where their
// transform, per-bin GEMM and inverse phases run on more than one slot
// (TestOtherEnginesZeroAlloc measures them through AllocsPerRun, on one
// proc), on a whole-image shape and on CIFARNet conv1, which runs 3×3
// tiles. It skips on one proc.
func TestFFTZeroAllocAtGOMAXPROCS(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the multi-slot phases need GOMAXPROCS ≥ 2")
	}
	for _, cfg := range []Config{
		{Batch: 4, Input: 16, Channels: 12, Filters: 20, Kernel: 5, Stride: 1, Pad: 2},
		{Batch: 4, Input: 32, Channels: 3, Filters: 32, Kernel: 5, Stride: 1, Pad: 2},
	} {
		x, w, y, dx, dw, dy := allocTensors(cfg)
		var ws workspace.Arena
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"forward", func() { FFTForward(&ws, cfg, x, w, y) }},
			{"backward-data", func() { FFTBackwardData(&ws, cfg, dy, w, dx) }},
			{"backward-filter", func() { FFTBackwardFilter(&ws, cfg, x, dy, dw) }},
		} {
			if got := alloctest.Mallocs(3, tc.run); got != 0 {
				t.Errorf("%v fft %s: %d mallocs per steady-state run at GOMAXPROCS %d, want 0",
					cfg, tc.name, got, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// TestOtherEnginesZeroAlloc covers the remaining arena-backed strategy
// functions on a small 3×3/stride-1 shape all of them support.
func TestOtherEnginesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations")
	}
	cfg := Config{Batch: 2, Input: 12, Channels: 4, Filters: 6, Kernel: 3, Stride: 1, Pad: 1}
	x, w, y, dx, dw, dy := allocTensors(cfg)
	var ws workspace.Arena
	assertZeroAlloc(t, "direct/forward", 1, func() { DirectForward(cfg, x, w, y) })
	assertZeroAlloc(t, "direct/backward-data", 1, func() { DirectBackwardData(cfg, dy, w, dx) })
	assertZeroAlloc(t, "direct/backward-filter", 1, func() { DirectBackwardFilter(cfg, x, dy, dw) })
	assertZeroAlloc(t, "fft/forward", 1, func() { FFTForward(&ws, cfg, x, w, y) })
	assertZeroAlloc(t, "fft/backward-data", 1, func() { FFTBackwardData(&ws, cfg, dy, w, dx) })
	assertZeroAlloc(t, "fft/backward-filter", 1, func() { FFTBackwardFilter(&ws, cfg, x, dy, dw) })
	assertZeroAlloc(t, "winograd/forward", 1, func() { WinogradForward(&ws, cfg, x, w, y) })
	assertZeroAlloc(t, "winograd/backward-data", 1, func() { WinogradBackwardData(&ws, cfg, dy, w, dx) })
}
