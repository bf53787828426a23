package obs

import (
	"gpucnn/internal/workspace"
)

// AttachWorkspace surfaces the workspace arena pool on the plane: a
// "workspace" dashboard section with the raw counters, plus registry
// gauges for the carve hit rate and high-water mark so /debug/dash
// charts them with their windowed peaks. The gauges are sampled lazily at
// snapshot time (the section callback runs on every dashboard render),
// so the kernels' hot paths pay nothing for the wiring.
func AttachWorkspace(p *Plane) {
	if p == nil {
		return
	}
	hwGauge := p.reg.Gauge("workspace_highwater_bytes", nil)
	hitGauge := p.reg.Gauge("workspace_carve_hit_ratio", nil)
	p.Section("workspace", func() map[string]any {
		s := workspace.ReadStats()
		hitRate := 1.0
		if s.Carves > 0 {
			hitRate = float64(s.Hits()) / float64(s.Carves)
		}
		hwGauge.Set(float64(s.HighWaterBytes))
		hitGauge.Set(hitRate)
		return map[string]any{
			"gets":            s.Gets,
			"puts":            s.Puts,
			"carves":          s.Carves,
			"slab_grows":      s.SlabGrows,
			"carve_hits":      s.Hits(),
			"carve_hit_rate":  hitRate,
			"highwater_bytes": s.HighWaterBytes,
		}
	})
}
