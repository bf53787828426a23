package nn

import (
	"strings"
	"testing"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/telemetry"
	"gpucnn/internal/tensor"
)

// TestLayerLatencyClockLabel: per-layer latency lands under
// clock="host" when no device drives the clock (real arithmetic timed
// on the host) and under clock="sim" when one does, and the family's
// help text names both domains instead of claiming simulated seconds.
func TestLayerLatencyClockLabel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dev   *gpusim.Device
		clock string
	}{
		{"host", nil, "host"},
		{"device", gpusim.New(gpusim.TeslaK40c()), "sim"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNet("tiny", NewConv("c1", nil, 4, 3, 1, 1), NewReLU("r1"))
			reg := telemetry.NewRegistry()
			ctx := NewContext(tc.dev, false)
			ctx.AttachTelemetry(nil, reg)
			if tc.dev == nil {
				net.Forward(ctx, NewValue(tensor.New(2, 1, 6, 6)))
			} else {
				net.Forward(ctx, &Value{Shape: tensor.Shape{2, 1, 6, 6}})
				net.Release()
			}

			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			series := `nn_layer_forward_seconds_count{clock="` + tc.clock + `",kind="Conv",layer="c1",net="tiny"} 1`
			if !strings.Contains(out, series+"\n") {
				t.Errorf("missing %s in:\n%s", series, out)
			}
			help := `# HELP nn_layer_forward_seconds Per-layer forward latency: simulated device seconds under clock="sim", host wall seconds under clock="host".`
			if !strings.Contains(out, help+"\n") {
				t.Errorf("missing help line %q in:\n%s", help, out)
			}
			other := map[string]string{"host": "sim", "sim": "host"}[tc.clock]
			if strings.Contains(out, `nn_layer_forward_seconds_count{clock="`+other+`"`) {
				t.Errorf("run on the %s clock wrote %s series:\n%s", tc.clock, other, out)
			}
		})
	}
}
