package gpusim

import "time"

// TraceEvent is one simulated-timeline entry: a kernel execution or a
// host↔device transfer, positioned at its simulated start time.
type TraceEvent struct {
	Name     string
	Category string // "kernel" or "transfer"
	Start    time.Duration
	Duration time.Duration

	// Work attribution, for sinks that aggregate as well as render.
	FLOPs     float64 // kernel events
	DRAMBytes float64 // kernel events
	Bytes     int64   // transfer events
}

// TraceSink receives every kernel launch and host↔device copy as it is
// simulated. internal/telemetry's Recorder implements it to attach
// events to a hierarchical span tree and count them into a registry.
type TraceSink interface {
	RecordEvent(TraceEvent)
}
