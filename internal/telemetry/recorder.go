package telemetry

import (
	"sync"

	"gpucnn/internal/gpusim"
)

// Recorder adapts a gpusim.Device's trace stream into the span tree: it
// implements gpusim.TraceSink and appends every kernel launch and
// host↔device copy to its currently attached span. Instrumented layers
// move the attach point as they start and finish, so device events land
// under the layer and phase that issued them.
type Recorder struct {
	mu  sync.Mutex
	cur *Span
	ctr *deviceCounters // optional, set by CountInto
}

// deviceCounters are the gpusim_* series one recorder feeds, resolved
// once so recording an event costs no registry lookup.
type deviceCounters struct {
	kernels, flops, dram, transfers, transferBytes, busy *Counter
}

// NewRecorder creates a detached recorder. Attach a span before
// driving the device, and install it with gpusim.Device.SetSink.
func NewRecorder() *Recorder { return &Recorder{} }

// CountInto additionally accumulates every event into the registry's
// gpusim_* counters under the given constant labels: launches, FLOPs
// and DRAM traffic per kernel, count and bytes per transfer, and the
// simulated seconds the device spent busy on either. The windowed
// reads of these counters give the live attained throughput — the
// rolling counterpart of the paper's per-layer GFLOPS tables.
func (r *Recorder) CountInto(reg *Registry, labels Labels) *Recorder {
	if r == nil {
		return nil
	}
	reg.Help("gpusim_busy_seconds_total", "Simulated seconds spent in kernels and transfers.")
	c := &deviceCounters{
		kernels:       reg.Counter("gpusim_kernel_launches_total", labels),
		flops:         reg.Counter("gpusim_flops_total", labels),
		dram:          reg.Counter("gpusim_dram_bytes_total", labels),
		transfers:     reg.Counter("gpusim_transfers_total", labels),
		transferBytes: reg.Counter("gpusim_transfer_bytes_total", labels),
		busy:          reg.Counter("gpusim_busy_seconds_total", labels.With("clock", "sim")),
	}
	r.mu.Lock()
	r.ctr = c
	r.mu.Unlock()
	return r
}

// Attach points the recorder at a span and returns the previous one.
func (r *Recorder) Attach(s *Span) (prev *Span) {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	prev, r.cur = r.cur, s
	r.mu.Unlock()
	return prev
}

// Current returns the attach point.
func (r *Recorder) Current() *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// RecordEvent implements gpusim.TraceSink.
func (r *Recorder) RecordEvent(e gpusim.TraceEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	cur, c := r.cur, r.ctr
	r.mu.Unlock()
	cur.AddEvent(Event{
		Name:      e.Name,
		Cat:       e.Category,
		Start:     e.Start,
		Dur:       e.Duration,
		FLOPs:     e.FLOPs,
		DRAMBytes: e.DRAMBytes,
		Bytes:     e.Bytes,
	})
	if c == nil {
		return
	}
	c.busy.Add(e.Duration.Seconds())
	if e.Category == "transfer" {
		c.transfers.Inc()
		c.transferBytes.Add(float64(e.Bytes))
	} else {
		c.kernels.Inc()
		c.flops.Add(e.FLOPs)
		c.dram.Add(e.DRAMBytes)
	}
}

// StartPhase opens a child span of the current attach point, attaches
// it, and returns the closure that ends it and restores the parent.
// The convolution engines call this (through a small interface, so they
// need no telemetry import) around their Forward / BackwardData /
// BackwardFilter kernel sequences — the per-phase attribution the fbfft
// evaluation methodology is built on.
func (r *Recorder) StartPhase(name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := r.cur
	r.mu.Unlock()
	if parent == nil {
		return func() {}
	}
	sp := parent.Child(name)
	r.Attach(sp)
	return func() {
		sp.End()
		r.Attach(parent)
	}
}
