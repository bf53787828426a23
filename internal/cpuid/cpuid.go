// Package cpuid probes, once per process, the widest vector level this
// CPU and its operating system support. The hand-written kernels of
// gemm (the packed micro-kernel) and fft (the butterfly stages) pick
// their instructions from it.
package cpuid

// Level names one instruction-set tier a kernel can be written for.
// Levels are ordered: a host that runs one runs every lower one.
type Level int

const (
	Go     Level = iota // portable scalar Go
	AVX2                // AVX2 and FMA on 256-bit ymm registers
	AVX512              // AVX-512F on 512-bit zmm registers
)

func (l Level) String() string {
	switch l {
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return "go"
}

// Host is the widest level the CPU and OS support (CPUID and XGETBV on
// amd64, Go elsewhere).
var Host = probe()
