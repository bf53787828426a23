package planner

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"gpucnn/internal/obs"
	"gpucnn/internal/telemetry"
)

// attachedRegistry receives per-decision counters once AttachPlane is
// called; the unattached state costs one atomic load per decision.
var attachedRegistry atomic.Pointer[telemetry.Registry]

// AttachPlane surfaces the planner on the plane: a
// planner_decisions_total counter in its registry (labelled by the
// chosen strategy and whether the cache served the decision), and a
// "planner" dashboard section rendering the DefaultCache decision table
// — which engine each layer of a live serving fleet is running on, and
// why, at /debug/dash.
func AttachPlane(p *obs.Plane) {
	if p == nil {
		return
	}
	reg := p.Registry()
	reg.Help("planner_decisions_total", "Planner decisions, by chosen strategy and cache hit.")
	attachedRegistry.Store(reg)
	p.Section("planner", func() map[string]any {
		stats := DefaultCache.Stats()
		out := map[string]any{
			"decisions":    stats.Entries,
			"cache_hits":   stats.Hits,
			"cache_misses": stats.Misses,
		}
		for _, d := range DefaultCache.Snapshot() {
			key := fmt.Sprintf("pick %s %v", d.Device, d.Cfg)
			out[key] = fmt.Sprintf("%s (%s, predicted %v)",
				d.Engine, d.Strategy, d.Predicted.Round(1000))
		}
		return out
	})
}

// observeDecision counts one decision (fresh or cache-served) into the
// attached registry.
func observeDecision(d Decision) {
	if reg := attachedRegistry.Load(); reg != nil {
		reg.Counter("planner_decisions_total", telemetry.Labels{
			"strategy": d.Strategy.String(), "cached": strconv.FormatBool(d.FromCache),
		}).Inc()
	}
}
