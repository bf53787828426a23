//go:build !amd64

package fft

// The assembly stages exist so stage.go links on every GOARCH; off
// amd64 cpuid.Host is cpuid.Go, so they are never reached here.

func difStageAVX2(x, tw *complex64, m, half, blocks, lim, full int) {
	panic("fft: difStageAVX2 called on a non-amd64 build")
}

func ditStageAVX2(x, tw *complex64, m, half, blocks, lim, full int) {
	panic("fft: ditStageAVX2 called on a non-amd64 build")
}
