//go:build !amd64

package gemm

// The assembly kernels exist so kernel.go links on every GOARCH; off
// amd64 cpuid.Host is cpuid.Go, so they are never reached here.

func microKernelAVX512(kc int, ap, bp, ct *float32, ldc int, alpha float32) {
	panic("gemm: microKernelAVX512 called on a non-amd64 build")
}

func microKernelAVX2(kc int, ap, bp, ct *float32, ldc int, alpha float32) {
	panic("gemm: microKernelAVX2 called on a non-amd64 build")
}

func microKernelAVX2N8(kc int, ap, bp, ct *float32, ldc int, alpha float32) {
	panic("gemm: microKernelAVX2N8 called on a non-amd64 build")
}

func transpose8Strips(src *float32, lda, blocks int, dst *float32) {
	panic("gemm: transpose8Strips called on a non-amd64 build")
}
