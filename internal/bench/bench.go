// Package bench regenerates every table and figure of the paper's
// evaluation: Figure 2 (model layer breakdown), Figure 3 (runtime
// sweeps), Figure 4 (hotspot kernels), Figure 5 (memory sweeps),
// Figure 6 (GPU metric profile over the Table I configs), Figure 7
// (transfer overhead), Table I (the configs themselves) and Table II
// (register / shared-memory usage).
//
// All results come from the simulated Tesla K40c in internal/gpusim;
// absolute values are model outputs, but the comparative shapes are
// calibrated against the paper's reported observations (see
// calibration_test.go and EXPERIMENTS.md).
package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
)

// Cell is one (implementation, configuration) measurement.
type Cell struct {
	Impl string
	Cfg  conv.Config

	// Unsupported carries the shape-limitation message when the engine
	// cannot run the configuration (the paper renders these as missing
	// points / dots).
	Unsupported string
	// OOM is set when the configuration exceeds the 12 GB device (the
	// paper's fbfft "program crush" cases).
	OOM bool
	// Panic carries the recovered message when the engine or plan
	// panicked during measurement. The parallel executor isolates such
	// failures to their own cell instead of killing the sweep.
	Panic string
	// Canceled is set when the measurement's context was cancelled or
	// its per-cell timeout expired before the iterations completed.
	Canceled bool

	Time          time.Duration // one training iteration (fwd + bwd)
	PeakBytes     int64
	TransferShare float64 // fraction of runtime spent in visible transfers
	Metrics       gpusim.Metrics
}

// Ok reports whether the cell holds a valid measurement.
func (c Cell) Ok() bool {
	return c.Unsupported == "" && !c.OOM && c.Panic == "" && !c.Canceled
}

// Iterations is how many training iterations each measurement averages
// over, matching the paper's methodology ("averaged over 10 iterations").
const Iterations = 10

// Measure runs Iterations training iterations of one engine on one
// configuration on a fresh simulated K40c and reports averaged results.
func Measure(e impls.Engine, cfg conv.Config) Cell {
	return MeasureOn(e, cfg, gpusim.TeslaK40c())
}

// MeasureOn is Measure on an arbitrary device specification — used by
// the cross-architecture ablations and the CLI tools' -device flag.
func MeasureOn(e impls.Engine, cfg conv.Config, spec gpusim.DeviceSpec) Cell {
	return MeasureCtx(context.Background(), e, cfg, spec)
}

// MeasureCtx is MeasureOn with telemetry: when the context carries a
// span or tracer, the measurement runs inside a span holding the full
// kernel/transfer stream of its iterations, and outcome counters
// (measurements, OOMs, unsupported shapes) land in the context's
// registry, if any — regression-visible substrate for the sweeps.
func MeasureCtx(ctx context.Context, e impls.Engine, cfg conv.Config, spec gpusim.DeviceSpec) Cell {
	cell := Cell{Impl: e.Name(), Cfg: cfg}
	_, span := telemetry.StartSpan(ctx, "measure:"+e.Name())
	span.SetAttr("impl", e.Name()).SetAttr("cfg", fmt.Sprint(cfg))
	defer span.End()
	reg := telemetry.RegistryFromContext(ctx)
	count := func(outcome string) {
		if reg != nil {
			reg.Counter("bench_measurements_total",
				telemetry.Labels{"impl": e.Name(), "outcome": outcome}).Inc()
		}
	}
	if ctx.Err() != nil {
		cell.Canceled = true
		count("canceled")
		return cell
	}
	if err := e.Supports(cfg.WithDefaults()); err != nil {
		cell.Unsupported = err.Error()
		count("unsupported")
		return cell
	}
	dev := gpusim.New(spec)
	if span != nil {
		rec := telemetry.NewRecorder()
		rec.Attach(span)
		dev.SetSink(rec)
	}
	plan, err := e.Plan(dev, cfg)
	if err != nil {
		var oom *gpusim.OOMError
		if errors.As(err, &oom) {
			cell.OOM = true
			count("oom")
			return cell
		}
		cell.Unsupported = err.Error()
		count("unsupported")
		return cell
	}
	defer plan.Release()
	for i := 0; i < Iterations; i++ {
		// Cooperative cancellation: a cancelled context or an expired
		// per-cell timeout abandons the cell at the next iteration
		// boundary — the finest grain the simulation exposes.
		if ctx.Err() != nil {
			cell.Canceled = true
			count("canceled")
			return cell
		}
		if err := plan.Iteration(); err != nil {
			var oom *gpusim.OOMError
			if errors.As(err, &oom) {
				cell.OOM = true
				count("oom")
				return cell
			}
			cell.Unsupported = err.Error()
			count("unsupported")
			return cell
		}
	}
	cell.Time = dev.Elapsed() / Iterations
	cell.PeakBytes = dev.Mem.Peak()
	if el := dev.Elapsed(); el > 0 {
		cell.TransferShare = dev.TransferTime().Seconds() / el.Seconds()
	}
	cell.Metrics = dev.Prof.WeightedMetrics(5)
	count("ok")
	span.SetAttr("time", cell.Time.String()).
		SetAttr("peak_bytes", fmt.Sprint(cell.PeakBytes))
	return cell
}

// Row is one sweep point: the swept parameter value and one cell per
// implementation, in registry order.
type Row struct {
	Value int
	Cells []Cell
}

// SweepCtx runs the sweep grid through the parallel executor: every
// (implementation, configuration) cell is an independent measurement on
// its own device, fanned out over opt.Workers goroutines. Results land
// by grid position, so the rows are identical to a serial sweep's.
func SweepCtx(ctx context.Context, cfgs []conv.Config, value func(conv.Config) int, spec gpusim.DeviceSpec, opt Options) []Row {
	if len(cfgs) == 0 {
		return nil
	}
	var tasks []Task
	for _, cfg := range cfgs {
		engines := opt.Engines
		if engines == nil {
			// Fresh engine instances per configuration: the paper's seven
			// carry no mutable state, but per-cell instantiation keeps the
			// worker pool race-free by construction.
			engines = impls.All()
		}
		for _, e := range engines {
			tasks = append(tasks, Task{Engine: e, Cfg: cfg, Spec: spec})
		}
	}
	cells := RunCells(ctx, tasks, opt)
	perRow := len(tasks) / len(cfgs)
	rows := make([]Row, len(cfgs))
	for i, cfg := range cfgs {
		rows[i] = Row{Value: value(cfg), Cells: cells[i*perRow : (i+1)*perRow]}
	}
	return rows
}

// deviceSpecs lists the canonical -device names with the normalized
// aliases each accepts.
var deviceSpecs = []struct {
	name    string
	aliases []string
	spec    func() gpusim.DeviceSpec
}{
	{"k40c", []string{"k40c", "k40", "teslak40c"}, gpusim.TeslaK40c},
	{"titanx", []string{"titanx", "titan", "titanxmaxwell"}, gpusim.TitanXMaxwell},
}

// normalizeDeviceName lower-cases and strips separator punctuation so
// "TitanX", "titan-x" and "Titan_X" all resolve to the same device.
func normalizeDeviceName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch r {
		case '-', '_', '.', ' ':
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// SpecByName resolves a device name for CLI -device flags. Matching is
// case-insensitive and ignores -, _, . and spaces; the empty name means
// the paper's K40c.
func SpecByName(name string) (gpusim.DeviceSpec, error) {
	norm := normalizeDeviceName(name)
	if norm == "" {
		return gpusim.TeslaK40c(), nil
	}
	valid := make([]string, 0, len(deviceSpecs))
	for _, d := range deviceSpecs {
		for _, a := range d.aliases {
			if norm == a {
				return d.spec(), nil
			}
		}
		valid = append(valid, d.name)
	}
	return gpusim.DeviceSpec{}, fmt.Errorf("bench: unknown device %q (valid names: %s)",
		name, strings.Join(valid, ", "))
}

// Best returns the fastest valid cell of a row.
func (r Row) Best() (Cell, bool) {
	var best Cell
	found := false
	for _, c := range r.Cells {
		if !c.Ok() {
			continue
		}
		if !found || c.Time < best.Time {
			best, found = c, true
		}
	}
	return best, found
}

// CellFor returns the row's cell for an implementation name.
func (r Row) CellFor(name string) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Impl == name {
			return c, true
		}
	}
	return Cell{}, false
}
