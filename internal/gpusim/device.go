package gpusim

import (
	"sync"
	"time"
)

// Device is a simulated GPU: a spec, a memory accountant, a profiler,
// and a simulated clock that advances with every kernel launch and
// data transfer. It is safe for concurrent use, though the convolution
// engines drive it sequentially (one stream), matching how the paper's
// frameworks issue their kernels.
type Device struct {
	Spec DeviceSpec
	Mem  *MemTracker
	Prof *Profiler

	mu             sync.Mutex
	kernelTime     time.Duration
	transferTime   time.Duration // transfers on the critical path
	hiddenTransfer time.Duration // transfers overlapped with compute
	launches       int64
	sink           TraceSink
}

// SetSink installs (or, with nil, removes) the device's event sink —
// the hook internal/telemetry's Recorder uses to nest kernel and
// transfer events under the span that issued them.
func (d *Device) SetSink(s TraceSink) {
	d.mu.Lock()
	d.sink = s
	d.mu.Unlock()
}

// Sink returns the installed event sink, if any.
func (d *Device) Sink() TraceSink {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sink
}

// New creates a device from a spec.
func New(spec DeviceSpec) *Device {
	return &Device{
		Spec: spec,
		Mem:  NewMemTracker(spec.GlobalMemBytes),
		Prof: NewProfiler(),
	}
}

// Launch simulates one kernel, records it with the profiler, advances
// the clock, and returns its metrics.
func (d *Device) Launch(k KernelSpec) (Metrics, error) {
	m, err := d.Spec.simulate(k)
	if err != nil {
		return Metrics{}, err
	}
	d.Prof.Record(k.Name, m)
	d.mu.Lock()
	start := d.kernelTime + d.transferTime
	d.kernelTime += m.Duration
	d.launches++
	sink := d.sink
	d.mu.Unlock()
	if sink != nil {
		sink.RecordEvent(TraceEvent{Name: k.Name, Category: "kernel", Start: start, Duration: m.Duration,
			FLOPs: m.FLOPs, DRAMBytes: m.DRAMBytes})
	}
	return m, nil
}

// MustLaunch is Launch for callers whose kernel specs are statically
// valid; it panics on configuration errors.
func (d *Device) MustLaunch(k KernelSpec) Metrics {
	m, err := d.Launch(k)
	if err != nil {
		panic(err)
	}
	return m
}

// Transfer describes one host↔device copy.
type Transfer struct {
	Bytes  int64
	Pinned bool // page-locked host memory: full PCIe bandwidth
	Async  bool // overlapped with compute (prefetching): off the critical path
}

// Copy simulates a host↔device transfer and returns its duration. Async
// transfers are accounted separately and do not extend the critical
// path (the prefetching trick Caffe uses to hide its input transfers).
func (d *Device) Copy(t Transfer) time.Duration {
	bw := d.Spec.PCIePageableGBps
	if t.Pinned {
		bw = d.Spec.PCIePinnedGBps
	}
	sec := float64(t.Bytes)/(bw*1e9) + d.Spec.TransferLatencyNs/1e9
	dur := time.Duration(sec * 1e9)
	d.mu.Lock()
	start := d.kernelTime + d.transferTime
	if t.Async {
		d.hiddenTransfer += dur
	} else {
		d.transferTime += dur
	}
	sink := d.sink
	d.mu.Unlock()
	if sink != nil {
		name := "memcpy_HtoD"
		if t.Async {
			name = "memcpy_HtoD_async"
		}
		sink.RecordEvent(TraceEvent{Name: name, Category: "transfer", Start: start, Duration: dur, Bytes: t.Bytes})
	}
	return dur
}

// KernelTime returns accumulated simulated kernel execution time.
func (d *Device) KernelTime() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kernelTime
}

// TransferTime returns accumulated critical-path transfer time.
func (d *Device) TransferTime() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.transferTime
}

// HiddenTransferTime returns accumulated overlapped transfer time.
func (d *Device) HiddenTransferTime() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hiddenTransfer
}

// Elapsed returns the simulated wall clock: kernel time plus
// non-overlapped transfers.
func (d *Device) Elapsed() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kernelTime + d.transferTime
}

// Launches returns the number of kernels launched.
func (d *Device) Launches() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.launches
}
