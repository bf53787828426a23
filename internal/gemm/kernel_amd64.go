//go:build amd64

package gemm

// useFMA gates the assembly micro-kernel: true when the CPU supports
// AVX2+FMA and the OS saves YMM state on context switch (OSXSAVE +
// XCR0). Checked once at init. When true the assembly kernel runs
// every micro-tile, ragged edge tiles included (microKernel); the
// scalar Go kernel is the fallback only for hosts where it is false.
var useFMA = cpuHasAVX2FMA()

// cpuHasAVX2FMA probes CPUID/XGETBV; implemented in kernel_amd64.s.
func cpuHasAVX2FMA() bool

// microKernelFMA multiplies one packed row-major mr×kc A panel with one
// packed p-major kc×nr B panel and adds the alpha-scaled full 8×8 tile
// into C at ct (row stride ldc floats). AVX2/FMA assembly in
// kernel_amd64.s; callers guarantee kc ≥ 1 and a full 8×8 tile at ct
// (a ragged tile goes through a stack tile, see microKernel).
//
//go:noescape
func microKernelFMA(kc int, ap, bp, ct *float32, ldc int, alpha float32)
