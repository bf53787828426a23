package telemetry_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"gpucnn/internal/bench"
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/nn"
	"gpucnn/internal/obs"
	"gpucnn/internal/serve"
	"gpucnn/internal/telemetry"
	"gpucnn/internal/tensor"
)

// TestEveryDurationSeriesNamesItsClock fills one registry through the
// serving, sweep, nn and device-collection paths and fails on any
// duration series (a family with "_seconds" in its name) that does not
// say which clock it was measured on: sim (the K40c cost model) or host
// (wall time on this CPU). The serving fleet writes the per-device sim
// series, serve_device_busy_seconds_total and gpusim_busy_seconds_total.
func TestEveryDurationSeriesNamesItsClock(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	cfg := conv.Config{Batch: 4, Input: 16, Channels: 3, Filters: 8, Kernel: 3, Stride: 1, Pad: 1}

	f, err := serve.NewFleet(serve.FleetOptions{
		ShardDevices: 2,
		Server: serve.Options{
			Model: cfg, MaxBatch: 4, MaxWait: time.Millisecond, TimeScale: -1,
			Obs: obs.NewPlane(reg), SLO: serve.SLOConfig{Interval: -1},
		},
		Autoscale: serve.AutoscaleConfig{Min: 1, Max: 1, Interval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := serve.RunTrace(ctx, f, serve.TraceOptions{BaseRPS: 1000, Duration: 20 * time.Millisecond}); rep.Completed == 0 {
		t.Fatalf("serving path served nothing: %+v", rep)
	}
	f.Close()

	bench.SweepCtx(ctx, []conv.Config{cfg}, func(c conv.Config) int { return c.Batch },
		gpusim.TeslaK40c(), bench.Options{Workers: 2})

	for _, dev := range []*gpusim.Device{nil, gpusim.New(gpusim.TeslaK40c())} {
		net := nn.NewNet("tiny", nn.NewConv("c1", nil, 4, 3, 1, 1), nn.NewReLU("r1"))
		nctx := nn.NewContext(dev, false)
		nctx.AttachTelemetry(telemetry.NewTracer().Root("run"), reg)
		if dev == nil {
			net.Forward(nctx, nn.NewValue(tensor.New(2, 1, 6, 6)))
			continue
		}
		net.Forward(nctx, &nn.Value{Shape: tensor.Shape{2, 1, 6, 6}})
		net.Release()
		telemetry.CollectDevice(reg, dev, telemetry.Labels{"device": "k40c"})
	}

	durations := 0
	for _, sr := range reg.Series() {
		if !strings.Contains(sr.Name, "_seconds") {
			continue
		}
		durations++
		if !strings.Contains(sr.Labels, `clock="sim"`) && !strings.Contains(sr.Labels, `clock="host"`) {
			t.Errorf("%s%s has no clock label", sr.Name, sr.Labels)
		}
	}
	if durations < 10 {
		t.Fatalf("only %d duration series registered: the paths above stopped writing", durations)
	}
}
