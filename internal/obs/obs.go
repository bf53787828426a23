// Package obs is the operational plane over a telemetry.Registry. The
// registry's instruments already answer both "what happened over the
// whole run" and "what happened over the last w"; obs adds what turns
// those reads into operations: SLO burn-rate monitors with
// OK→WARN→PAGE transitions, periodic CPU/heap profile capture keyed to
// the active operation, pluggable dashboard info sections, and one HTTP
// handler that serves the registry as Prometheus text, JSON and the
// live /debug/dash dashboard.
//
// Every clock-dependent component reads the registry's clock, so
// window-edge and burn-rate behaviour is deterministic under a
// telemetry.FakeClock.
package obs

import (
	"sync"
	"time"

	"gpucnn/internal/telemetry"
)

// Fast and Slow are the plane's canonical query windows: dashboards
// show "last 10 s" next to "last 1 m", and the burn-rate monitors pair
// a fast window with a slow one.
const (
	FastWindow = 10 * time.Second
	SlowWindow = time.Minute
)

// Plane is one process's operational surface over a registry: an
// "active operation" tag for profile attribution, pluggable info
// sections (batcher internals, worker-pool state) and the monitors and
// profilers watching the registry. All methods are safe for concurrent
// use and nil-safe, so layers can thread an optional plane through
// unconditionally.
type Plane struct {
	reg *telemetry.Registry

	mu        sync.Mutex
	op        string
	sections  map[string]func() map[string]any
	secOrder  []string
	monitors  []*Monitor
	profilers []*Profiler
}

// NewPlane creates a plane over the registry (telemetry.Default() when
// nil).
func NewPlane(reg *telemetry.Registry) *Plane {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Plane{reg: reg, sections: map[string]func() map[string]any{}}
}

// Registry returns the plane's registry, or telemetry.Default() for a
// nil plane: code handed an optional plane always has somewhere to
// write.
func (p *Plane) Registry() *telemetry.Registry {
	if p == nil {
		return telemetry.Default()
	}
	return p.reg
}

// Clock returns the registry's clock, so attached components share one
// notion of time.
func (p *Plane) Clock() telemetry.Clock { return p.Registry().Clock() }

// SetOp tags the plane with the operation currently in flight (serve
// batch, sweep cell). Profile captures and dashboard snapshots carry
// the tag, answering "what was running when this was taken".
func (p *Plane) SetOp(op string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.op = op
	p.mu.Unlock()
}

// Op returns the active operation tag.
func (p *Plane) Op() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.op
}

// Section registers a named dashboard info section. The callback runs
// at snapshot time and must be safe to call from any goroutine;
// returned maps should hold JSON-encodable scalars. Re-registering a
// name replaces the callback.
func (p *Plane) Section(name string, fn func() map[string]any) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if _, ok := p.sections[name]; !ok {
		p.secOrder = append(p.secOrder, name)
	}
	p.sections[name] = fn
	p.mu.Unlock()
}

// Watch attaches a monitor so its SLO states appear in dashboard
// snapshots.
func (p *Plane) Watch(m *Monitor) {
	if p == nil || m == nil {
		return
	}
	p.mu.Lock()
	p.monitors = append(p.monitors, m)
	p.mu.Unlock()
}

// Unwatch detaches a monitor (a closing server removes its stopped
// monitor so the dashboard never shows stale states).
func (p *Plane) Unwatch(m *Monitor) {
	if p == nil || m == nil {
		return
	}
	p.mu.Lock()
	for i, w := range p.monitors {
		if w == m {
			p.monitors = append(p.monitors[:i], p.monitors[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// AttachProfiler surfaces a profiler's latest captures in dashboard
// snapshots and tags its captures with the plane's active operation.
func (p *Plane) AttachProfiler(pr *Profiler) {
	if p == nil || pr == nil {
		return
	}
	pr.mu.Lock()
	pr.plane = p
	pr.mu.Unlock()
	p.mu.Lock()
	p.profilers = append(p.profilers, pr)
	p.mu.Unlock()
}
