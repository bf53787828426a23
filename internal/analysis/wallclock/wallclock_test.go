package wallclock_test

import (
	"testing"

	"gpucnn/internal/analysis/atest"
	"gpucnn/internal/analysis/wallclock"
)

func TestWallClock(t *testing.T) {
	// gpusim (modeled time) and gemm (a host kernel) are clock-free;
	// a is neither and stays silent.
	atest.Run(t, atest.TestData(t), wallclock.Analyzer, "gpusim", "gemm", "a")
}
