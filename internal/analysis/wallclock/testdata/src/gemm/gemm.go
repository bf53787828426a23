// Fixtures for wallclock: this package's base name ("gemm") makes it a
// host kernel, whose results must not depend on the wall clock.
package gemm

import "time"

// PickKC times a candidate blocking: a measured choice in a kernel.
func PickKC(run func(kc int)) int {
	t0 := time.Now() // want `time.Now in clock-free package gemm`
	run(256)
	if time.Since(t0) > time.Millisecond { // want `time.Since in clock-free package gemm`
		return 128
	}
	return 256
}

// KCFor derives the blocking from the cache size alone.
func KCFor(l1d int) int {
	return l1d / 2 / 64
}
