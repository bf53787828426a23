package bench

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/par"
	"gpucnn/internal/telemetry"
)

// Options configure the parallel measurement executor. The zero value
// is a sensible default: one worker per CPU, no per-cell timeout.
type Options struct {
	// Workers bounds the number of concurrent measurements. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout bounds each individual measurement. Zero means none.
	// Cancellation is cooperative: a running cell is abandoned at its
	// next iteration boundary and marked Canceled.
	Timeout time.Duration
	// Engines overrides the engine set a sweep measures. Nil means the
	// paper's seven (impls.All(), fresh instances per configuration);
	// non-nil instances are shared across every cell of the sweep, so
	// stateful engines such as the planner's Autotuned must be safe for
	// concurrent use (Autotuned is).
	Engines []impls.Engine
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Task is one (implementation, configuration, device) measurement cell
// for the executor. Each task builds its own gpusim.Device, so tasks
// are independent; engines are stateless, but callers that want zero
// sharing can hand every task its own instance (SweepCtx does).
type Task struct {
	Engine impls.Engine
	Cfg    conv.Config
	Spec   gpusim.DeviceSpec
}

// RunCells fans the tasks out across a bounded worker pool and returns
// one Cell per task, by task index — results are positioned
// deterministically no matter which worker finishes first, so a
// parallel sweep renders byte-identically to a serial one.
//
// Failure isolation: a panic inside an engine or plan poisons only its
// own cell (Cell.Panic carries the recovered message); cancelling ctx
// or exceeding opt.Timeout marks the affected cells Canceled. The
// other cells complete normally either way.
//
// When ctx carries a telemetry registry, per-cell host latency lands in
// the bench_cell_latency_seconds histogram (labelled by implementation)
// and pool behaviour in the bench_executor_* series.
func RunCells(ctx context.Context, tasks []Task, opt Options) []Cell {
	cells := make([]Cell, len(tasks))
	reg := telemetry.RegistryFromContext(ctx)
	errs := runIndexed(ctx, len(tasks), opt, func(ctx context.Context, i int) {
		t := tasks[i]
		if opt.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
			defer cancel()
		}
		start := time.Now()
		defer func() {
			if reg != nil {
				reg.Histogram("bench_cell_latency_seconds",
					telemetry.Labels{"impl": t.Engine.Name(), "clock": "host"}, nil).
					Observe(time.Since(start).Seconds())
			}
		}()
		cells[i] = MeasureCtx(ctx, t.Engine, t.Cfg, t.Spec)
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		cells[i] = Cell{Impl: tasks[i].Engine.Name(), Cfg: tasks[i].Cfg, Panic: err.Error()}
		if reg != nil {
			reg.Counter("bench_measurements_total",
				telemetry.Labels{"impl": tasks[i].Engine.Name(), "outcome": "panic"}).Inc()
		}
	}
	return cells
}

// runIndexed distributes jobs 0..n-1 over a bounded worker pool and
// waits for all of them. Jobs are claimed in index order but may
// complete in any order; each writes only its own slot, so callers get
// deterministic placement for free. A panicking job is recovered into
// its errs slot instead of taking down the sweep. Worker utilisation
// (busy seconds per worker over the pool's wall time) is recorded in
// the context's telemetry registry, if any.
func runIndexed(ctx context.Context, n int, opt Options, job func(ctx context.Context, i int)) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	start := time.Now()
	busy := make([]time.Duration, workers)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		par.Go(fmt.Sprintf("bench.executor-%d", w), func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				t0 := time.Now()
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("%v", r)
						}
					}()
					job(ctx, i)
				}()
				busy[w] += time.Since(t0)
			}
		})
	}
	wg.Wait()
	if reg := telemetry.RegistryFromContext(ctx); reg != nil {
		wall := time.Since(start)
		host := telemetry.Labels{"clock": "host"}
		reg.Gauge("bench_executor_workers", nil).Set(float64(workers))
		reg.Counter("bench_executor_jobs_total", nil).Add(float64(n))
		reg.Histogram("bench_executor_pool_wall_seconds", host, nil).Observe(wall.Seconds())
		for w, b := range busy {
			labels := telemetry.Labels{"worker": strconv.Itoa(w)}
			reg.Counter("bench_executor_busy_seconds_total", labels.With("clock", "host")).Add(b.Seconds())
			if wall > 0 {
				reg.Gauge("bench_executor_utilization", labels).Set(b.Seconds() / wall.Seconds())
			}
		}
	}
	return errs
}
