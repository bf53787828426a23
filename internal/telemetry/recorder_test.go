package telemetry

import (
	"math"
	"testing"
	"time"

	"gpucnn/internal/gpusim"
)

func launchKernel(d *gpusim.Device, name string, flops float64) {
	d.MustLaunch(gpusim.KernelSpec{
		Name:          name,
		Grid:          gpusim.Dim3{X: 1024},
		Block:         gpusim.Dim3{X: 256},
		RegsPerThread: 32,
		FLOPs:         flops,
	})
}

func TestRecorderAttachesDeviceEvents(t *testing.T) {
	dev := gpusim.New(gpusim.TeslaK40c())
	tr := NewTracer()
	tr.SetSimClock(dev.Elapsed)
	root := tr.Root("run")

	rec := NewRecorder()
	if prev := rec.Attach(root); prev != nil {
		t.Fatal("fresh recorder had an attach point")
	}
	dev.SetSink(rec)

	launchKernel(dev, "sgemm", 1e9)
	dev.Copy(gpusim.Transfer{Bytes: 1 << 20})
	root.End()

	events := root.Events()
	if len(events) != 2 {
		t.Fatalf("%d events on the span, want 2", len(events))
	}
	if events[0].Name != "sgemm" || events[0].Cat != "kernel" || events[0].FLOPs != 1e9 {
		t.Fatalf("kernel event %+v", events[0])
	}
	if events[1].Cat != "transfer" || events[1].Bytes != 1<<20 {
		t.Fatalf("transfer event %+v", events[1])
	}
	// Span's simulated interval must cover the device work.
	if _, end := root.SimInterval(); end != dev.Elapsed() {
		t.Fatalf("span simEnd %v != device elapsed %v", end, dev.Elapsed())
	}
}

func TestRecorderStartPhase(t *testing.T) {
	dev := gpusim.New(gpusim.TeslaK40c())
	tr := NewTracer()
	root := tr.Root("layer")
	rec := NewRecorder()
	rec.Attach(root)
	dev.SetSink(rec)

	endFwd := rec.StartPhase("forward")
	launchKernel(dev, "fwd_kernel", 1e9)
	endFwd()
	launchKernel(dev, "other", 1e8)

	phases := root.Children()
	if len(phases) != 1 || phases[0].Name() != "forward" {
		t.Fatalf("phase spans %v", phases)
	}
	if ev := phases[0].Events(); len(ev) != 1 || ev[0].Name != "fwd_kernel" {
		t.Fatalf("phase events %v", ev)
	}
	// After the phase closure, events land on the parent again.
	if ev := root.Events(); len(ev) != 1 || ev[0].Name != "other" {
		t.Fatalf("post-phase events %v", ev)
	}
	if rec.Current() != root {
		t.Fatal("phase closure did not restore the attach point")
	}
}

func TestRecorderDetachedPhaseIsNoop(t *testing.T) {
	rec := NewRecorder()
	end := rec.StartPhase("forward") // no attach point: must not panic
	end()
	var nilRec *Recorder
	nilRec.RecordEvent(gpusim.TraceEvent{})
	nilRec.StartPhase("x")()
	nilRec.Attach(nil)
	if nilRec.CountInto(nil, nil) != nil || nilRec.Current() != nil {
		t.Fatal("nil recorder leaked state")
	}
}

func TestRecorderCountInto(t *testing.T) {
	dev := gpusim.New(gpusim.TeslaK40c())
	reg := NewRegistry()
	rec := NewRecorder().CountInto(reg, Labels{"device": "k40c"})
	rec.Attach(NewTracer().Root("run"))
	dev.SetSink(rec)

	launchKernel(dev, "k1", 1e9)
	launchKernel(dev, "k2", 2e9)
	dev.Copy(gpusim.Transfer{Bytes: 4096})

	l := Labels{"device": "k40c"}
	if v := reg.Counter("gpusim_kernel_launches_total", l).Value(); v != 2 {
		t.Fatalf("launches counter = %v", v)
	}
	if v := reg.Counter("gpusim_flops_total", l).Value(); v != 3e9 {
		t.Fatalf("flops counter = %v", v)
	}
	if v := reg.Counter("gpusim_transfers_total", l).Value(); v != 1 {
		t.Fatalf("transfers counter = %v", v)
	}
	if v := reg.Counter("gpusim_transfer_bytes_total", l).Value(); v != 4096 {
		t.Fatalf("transfer bytes counter = %v", v)
	}
	if v := reg.Counter("gpusim_busy_seconds_total", l.With("clock", "sim")).Value(); math.Abs(v-dev.Elapsed().Seconds()) > 1e-12 {
		t.Fatalf("busy seconds = %v, want the device's elapsed %v", v, dev.Elapsed().Seconds())
	}
}

func TestCollectDevice(t *testing.T) {
	dev := gpusim.New(gpusim.TeslaK40c())
	launchKernel(dev, "sgemm", 1e9)
	reg := NewRegistry()
	CollectDevice(reg, dev, Labels{"device": "k40c"})

	if v := reg.Gauge("gpusim_launches", Labels{"device": "k40c"}).Value(); v != 1 {
		t.Fatalf("gpusim_launches = %v", v)
	}
	if v := reg.Gauge("gpusim_elapsed_seconds", Labels{"device": "k40c", "clock": "sim"}).Value(); v <= 0 {
		t.Fatalf("gpusim_elapsed_seconds = %v", v)
	}
	perKernel := Labels{"device": "k40c", "kernel": "sgemm"}
	if v := reg.Gauge("gpusim_kernel_launches", perKernel).Value(); v != 1 {
		t.Fatalf("per-kernel launches = %v", v)
	}
	if v := reg.Gauge("gpusim_kernel_flops", perKernel).Value(); v != 1e9 {
		t.Fatalf("per-kernel flops = %v", v)
	}
}

func TestRecorderConcurrentEvents(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("run")
	rec := NewRecorder().CountInto(NewRegistry(), nil)
	rec.Attach(root)

	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				rec.RecordEvent(gpusim.TraceEvent{
					Name: "k", Category: "kernel",
					Start: time.Duration(i), Duration: 1, FLOPs: 1,
				})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if tot := root.Totals(); tot.Kernels != 800 {
		t.Fatalf("lost events: %+v", tot)
	}
}
