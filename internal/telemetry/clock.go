package telemetry

import (
	"sync"
	"time"
)

// Clock abstracts the time source of a registry's rolling windows and
// of the components that evaluate them. Production code uses Wall;
// tests inject a FakeClock and step it across slot boundaries.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Wall is the real-time clock.
var Wall Clock = wallClock{}

// IsWall reports whether c is the real-time clock (treating nil as
// wall). Components that poll on their own (SLO monitors, profilers,
// autoscalers) use it to default to manual evaluation under a fake
// clock.
func IsWall(c Clock) bool {
	_, ok := c.(wallClock)
	return c == nil || ok
}

// FakeClock is a manually advanced Clock for deterministic tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{t: start}
}

// Now returns the fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}
