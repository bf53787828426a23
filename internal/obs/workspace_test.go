package obs

import (
	"testing"

	"gpucnn/internal/telemetry"
	"gpucnn/internal/workspace"
)

func TestAttachWorkspaceSectionAndGauges(t *testing.T) {
	p := NewPlane(telemetry.NewRegistry())
	AttachWorkspace(p)

	// Generate some arena traffic so the counters are non-trivial.
	ws := workspace.Get()
	_ = ws.Float32Uninit(2048)
	workspace.Put(ws)

	snap := p.Dash()
	sec, ok := snap.Sections["workspace"]
	if !ok {
		t.Fatalf("dashboard sections missing workspace: %+v", snap.Sections)
	}
	for _, key := range []string{"gets", "puts", "carves", "slab_grows", "carve_hit_rate", "highwater_bytes"} {
		if _, ok := sec[key]; !ok {
			t.Errorf("workspace section missing %q: %+v", key, sec)
		}
	}
	if sec["gets"].(int64) <= 0 {
		t.Errorf("gets = %v, want > 0", sec["gets"])
	}
	if hw := sec["highwater_bytes"].(int64); hw < 2048*4 {
		t.Errorf("highwater_bytes = %d, want >= %d", hw, 2048*4)
	}
	// The lazily sampled gauges must exist after a snapshot.
	if g := p.Registry().Gauge("workspace_highwater_bytes", nil); g.Value() < 2048*4 {
		t.Errorf("highwater gauge = %v, want >= %d", g.Value(), 2048*4)
	}
	rate := p.Registry().Gauge("workspace_carve_hit_ratio", nil).Value()
	if rate < 0 || rate > 1 {
		t.Errorf("hit-rate gauge = %v, want within [0,1]", rate)
	}
}
