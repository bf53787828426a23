// Package multigpu extends the single-device study with data-parallel
// training across several simulated GPUs — the "one weird trick"
// scheme (the paper's reference [18], cuda-convnet2) that all the
// surveyed frameworks grew during this period: each device computes a
// shard of the mini-batch, then weight gradients are all-reduced over
// the PCIe interconnect before the update.
//
// The scaling behaviour the model exposes is the classical one: compute
// shrinks with 1/N while the ring all-reduce cost is nearly constant in
// N, so convolutional layers (many flops, few weights) scale well and
// fully-connected layers (few flops, many weights) stall — the reason
// reference [18] parallelises conv layers by data and FC layers by
// model.
package multigpu

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
)

// Cluster is a set of identical simulated GPUs on one PCIe root.
type Cluster struct {
	Devices []*gpusim.Device
	spec    gpusim.DeviceSpec
	locks   []sync.Mutex // one per device, for ExecOn serialisation
}

// New builds a cluster of n devices with the given spec.
func New(n int, spec gpusim.DeviceSpec) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("multigpu: cluster size %d", n))
	}
	c := &Cluster{spec: spec, locks: make([]sync.Mutex, n)}
	for i := 0; i < n; i++ {
		c.Devices = append(c.Devices, gpusim.New(spec))
	}
	return c
}

// Size returns the device count.
func (c *Cluster) Size() int { return len(c.Devices) }

// Spec returns the device specification shared by the cluster.
func (c *Cluster) Spec() gpusim.DeviceSpec { return c.spec }

// ExecOn runs fn with exclusive access to device i. A gpusim.Device is
// internally thread-safe, but measuring a unit of work as an
// Elapsed()-delta (and attaching a telemetry sink around it) is not —
// concurrent dispatchers would interleave their kernels on one clock.
// Every concurrent user of a cluster device must go through ExecOn.
func (c *Cluster) ExecOn(i int, fn func(dev *gpusim.Device) error) error {
	c.locks[i].Lock()
	defer c.locks[i].Unlock()
	return fn(c.Devices[i])
}

// AllReduceTime models a ring all-reduce of `bytes` gradient bytes
// across the cluster over PCIe (peer-to-peer at pinned bandwidth):
// each device sends and receives 2·(N−1)/N of the buffer.
func (c *Cluster) AllReduceTime(bytes int64) time.Duration {
	n := len(c.Devices)
	if n == 1 {
		return 0
	}
	bw := c.spec.PCIePinnedGBps * 1e9
	vol := 2 * float64(n-1) / float64(n) * float64(bytes)
	sec := vol/bw + float64(n-1)*c.spec.TransferLatencyNs/1e9
	return time.Duration(sec * 1e9)
}

// Result summarises one data-parallel iteration.
type Result struct {
	Devices      int
	ShardBatch   int
	ComputeTime  time.Duration // slowest device's local iteration
	AllReduce    time.Duration
	Total        time.Duration
	Speedup      float64 // vs the 1-device iteration on the full batch
	CommFraction float64
}

// Iteration simulates one data-parallel training iteration of a
// convolution layer: the global batch is sharded evenly (it must
// divide; remainders would unbalance the ring), each device runs its
// shard, and the filter gradients are all-reduced.
func (c *Cluster) Iteration(e impls.Engine, cfg conv.Config) (Result, error) {
	return c.IterationCtx(context.Background(), e, cfg)
}

// IterationCtx is Iteration with telemetry: when the context carries a
// span (or tracer), every replica's kernel stream lands in its own
// process lane under a per-replica span, and the gradient all-reduce
// appears as a sync span after the slowest replica — the view that
// makes the conv-scales/FC-stalls behaviour visible on a timeline.
// Counters for sharded iterations, all-reduced bytes and sync time land
// in the context's registry, if any, as do every replica's gpusim_*
// event counters (labelled by device).
func (c *Cluster) IterationCtx(ctx context.Context, e impls.Engine, cfg conv.Config) (Result, error) {
	n := len(c.Devices)
	cfg = cfg.WithDefaults()
	if cfg.Batch%n != 0 {
		return Result{}, fmt.Errorf("multigpu: batch %d does not shard across %d devices", cfg.Batch, n)
	}
	shard := cfg
	shard.Batch = cfg.Batch / n
	if err := e.Supports(shard); err != nil {
		return Result{}, fmt.Errorf("multigpu: shard unsupported: %w", err)
	}

	_, span := telemetry.StartSpan(ctx, "multigpu.iteration")
	span.SetAttr("impl", e.Name()).SetAttr("devices", fmt.Sprint(n))
	defer span.End()
	reg := telemetry.RegistryFromContext(ctx)

	// runReplica executes one device's shard. The replica span is ended
	// and the device's telemetry sink detached on every exit path —
	// leaking either across an error corrupts later exports from the
	// same cluster (a stale sink keeps appending foreign events to a
	// dead span).
	runReplica := func(i int, dev *gpusim.Device) (el time.Duration, err error) {
		dev.ResetClock()
		rsp := span.Child(fmt.Sprintf("replica-%d", i)).SetProc(i).
			SetAttr("shard_batch", fmt.Sprint(shard.Batch))
		if rsp != nil || reg != nil {
			rec := telemetry.NewRecorder()
			if reg != nil {
				rec.CountInto(reg, telemetry.Labels{"device": fmt.Sprint(i)})
			}
			rec.Attach(rsp)
			dev.SetSink(rec)
		}
		defer func() {
			rsp.SetSim(0, dev.Elapsed())
			rsp.End()
			dev.SetSink(nil)
		}()
		plan, err := e.Plan(dev, shard)
		if err != nil {
			return 0, err
		}
		defer plan.Release()
		if err := plan.Iteration(); err != nil {
			return 0, err
		}
		return dev.Elapsed(), nil
	}

	var slowest time.Duration
	for i, dev := range c.Devices {
		el, err := runReplica(i, dev)
		if err != nil {
			return Result{}, err
		}
		if el > slowest {
			slowest = el
		}
	}
	ar := c.AllReduceTime(cfg.FilterBytes())
	total := slowest + ar
	span.Child("allreduce").
		SetAttr("bytes", fmt.Sprint(cfg.FilterBytes())).
		SetSim(slowest, total).End()
	span.SetSim(0, total)
	if reg != nil {
		labels := telemetry.Labels{"impl": e.Name(), "devices": fmt.Sprint(n)}
		sim := labels.With("clock", "sim")
		reg.Counter("multigpu_iterations_total", labels).Inc()
		reg.Counter("multigpu_allreduce_bytes_total", labels).Add(float64(cfg.FilterBytes()))
		reg.Counter("multigpu_allreduce_seconds_total", sim).Add(ar.Seconds())
		reg.Counter("multigpu_compute_seconds_total", sim).Add(slowest.Seconds())
	}

	// Single-device reference for the speedup.
	ref := gpusim.New(c.spec)
	refPlan, err := e.Plan(ref, cfg)
	if err != nil {
		return Result{}, err
	}
	if err := refPlan.Iteration(); err != nil {
		refPlan.Release()
		return Result{}, err
	}
	refPlan.Release()

	res := Result{
		Devices:     n,
		ShardBatch:  shard.Batch,
		ComputeTime: slowest,
		AllReduce:   ar,
		Total:       total,
	}
	if total > 0 {
		res.Speedup = ref.Elapsed().Seconds() / total.Seconds()
		res.CommFraction = ar.Seconds() / total.Seconds()
	}
	return res, nil
}

// ScalingStudy runs the iteration across cluster sizes (1, 2, 4, …)
// and returns the per-size results — a strong-scaling curve for the
// configuration.
func ScalingStudy(e impls.Engine, cfg conv.Config, spec gpusim.DeviceSpec, sizes []int) ([]Result, error) {
	var out []Result
	for _, n := range sizes {
		c := New(n, spec)
		r, err := c.Iteration(e, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
