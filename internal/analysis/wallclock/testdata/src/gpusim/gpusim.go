// Fixtures for wallclock: this package's base name ("gpusim") puts it
// in the simulated-time domain.
package gpusim

import "time"

// Cost models a kernel's duration — entirely from parameters.
func Cost(flops, flopsPerSec float64) time.Duration {
	return time.Duration(flops / flopsPerSec * float64(time.Second))
}

// Stamp reads the wall clock in the sim domain.
func Stamp() time.Time {
	return time.Now() // want `time.Now in clock-free package gpusim`
}

// Elapsed measures host time in the sim domain.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since in clock-free package gpusim`
}

// Ignored shows that a //lint:ignore directive still silences the
// report, as it does for every analyzer.
func Ignored(start time.Time) time.Duration {
	//lint:ignore wallclock fixture for the shared ignore mechanism
	return time.Since(start)
}

// Sleeping is not a clock read; other time functions stay legal.
func Sleeping() {
	time.Sleep(time.Millisecond)
}
