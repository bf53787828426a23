// Package alloctest counts the heap allocations of a steady-state call
// at the host's GOMAXPROCS, for allocation gates on paths that fan out
// over the par pool. testing.AllocsPerRun sets GOMAXPROCS to 1 while it
// measures, and a pass that splits its work only when there is more
// than one proc never takes its parallel branch there.
package alloctest

import "runtime"

// Mallocs calls f twice to warm it, then returns the least of tries
// readings of runtime.MemStats.Mallocs across one call of f. The count
// is process-wide, so it includes the pool workers' mallocs; for the
// same reason a malloc made outside f can land in one reading, while
// an allocation of f itself lands in every one.
func Mallocs(tries int, f func()) uint64 {
	f()
	f()
	var least uint64
	for i := 0; i < tries; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; i == 0 || got < least {
			least = got
		}
	}
	return least
}
