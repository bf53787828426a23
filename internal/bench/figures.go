package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

// ModelBreakdown is one bar of Figure 2.
type ModelBreakdown struct {
	Model     string
	Batch     int
	Total     time.Duration
	ByKind    map[nn.Kind]time.Duration
	ConvShare float64
	Params    int
}

// Figure2 profiles the paper's four real-life models for one training
// iteration each (the paper averaged 10; the simulation is
// deterministic, so one suffices) and returns the per-layer-kind
// runtime breakdowns. The models run on the Caffe engine, the
// framework the paper profiled the full models in.
func Figure2() []ModelBreakdown {
	return Figure2Ctx(context.Background(), Options{})
}

// Figure2Ctx is Figure2 with the four models profiled concurrently on
// the executor's worker pool. Each model gets its own engine, device
// and simulation context, so the breakdowns match the serial run
// exactly; a model whose simulation panics or is cancelled is dropped
// from the result instead of aborting the figure.
func Figure2Ctx(ctx context.Context, opt Options) []ModelBreakdown {
	batches := map[string]int{"AlexNet": 128, "GoogLeNet": 128, "OverFeat": 128, "VGG": 64}
	order := []string{"GoogLeNet", "VGG", "OverFeat", "AlexNet"}
	results := make([]ModelBreakdown, len(order))
	done := make([]bool, len(order))
	errs := runIndexed(ctx, len(order), opt, func(ctx context.Context, i int) {
		if ctx.Err() != nil {
			return
		}
		name := order[i]
		m := models.All(impls.NewCaffe())[name]
		dev := gpusim.New(gpusim.TeslaK40c())
		nctx := nn.NewContext(dev, true)
		batch := batches[name]
		m.Net.SimulateIteration(nctx, tensor.Shape(m.InputShape(batch)))
		results[i] = ModelBreakdown{
			Model:     name,
			Batch:     batch,
			Total:     dev.Elapsed(),
			ByKind:    nctx.TimeByKind,
			ConvShare: nn.ConvShare(nctx.TimeByKind),
			Params:    m.Net.ParamCount(),
		}
		done[i] = true
		m.Net.Release()
	})
	var out []ModelBreakdown
	for i := range results {
		if done[i] && errs[i] == nil {
			out = append(out, results[i])
		}
	}
	return out
}

// Figure3 runs the runtime comparison for one named sweep ("batch",
// "input", "filter", "kernel" or "stride") on the paper's K40c.
func Figure3(sweep string) []Row {
	return Figure3Ctx(context.Background(), sweep, gpusim.TeslaK40c(), Options{})
}

// Figure3Ctx is Figure3 on an arbitrary device specification, with a
// context, worker pool and per-cell timeout: the sweep grid runs
// through the parallel executor. Its cells carry both the runtime
// (Figure 3) and the peak memory (Figure 5) of each measurement, as
// the paper measured both in the same runs.
func Figure3Ctx(ctx context.Context, sweep string, spec gpusim.DeviceSpec, opt Options) []Row {
	cfgs, ok := workload.Sweeps()[sweep]
	if !ok {
		panic(fmt.Sprintf("bench: unknown sweep %q", sweep))
	}
	return SweepCtx(ctx, cfgs, func(c conv.Config) int { return workload.SweptValue(sweep, c) }, spec, opt)
}

// KernelShare is one slice of a Figure 4 pie.
type KernelShare struct {
	Kernel string
	Share  float64
	Time   time.Duration
}

// Figure4 profiles the hotspot kernels of every implementation at the
// representative configuration (64,128,64,11,1) and returns each
// implementation's kernel-share breakdown, largest first.
func Figure4() map[string][]KernelShare {
	out := map[string][]KernelShare{}
	for _, e := range impls.All() {
		dev := gpusim.New(gpusim.TeslaK40c())
		plan, err := e.Plan(dev, workload.Base())
		if err != nil {
			continue
		}
		if err := plan.Iteration(); err != nil {
			plan.Release()
			continue
		}
		total := dev.Prof.TotalTime().Seconds()
		var shares []KernelShare
		for _, k := range dev.Prof.Kernels() {
			shares = append(shares, KernelShare{
				Kernel: k.Name,
				Share:  k.Total.Seconds() / total,
				Time:   k.Total,
			})
		}
		out[e.Name()] = shares
		plan.Release()
	}
	return out
}

// GEMMShare sums the GEMM-classified kernel shares of a Figure 4
// breakdown (the paper groups all matrix-multiply kernels as GEMM).
func GEMMShare(shares []KernelShare) float64 {
	var s float64
	for _, k := range shares {
		name := strings.ToLower(k.Kernel)
		if strings.Contains(name, "gemm") || strings.Contains(name, "wgrad") {
			s += k.Share
		}
	}
	return s
}

// MetricsRow is one implementation's weighted metric profile on one
// Table I configuration (Figure 6).
type MetricsRow struct {
	Config string
	Impl   string
	Cell   Cell
}

// tableIGrid measures every implementation over the five Table I
// configurations through the parallel executor, preserving the serial
// (config-major, registry-order) cell layout Figures 6 and 7 share.
func tableIGrid(ctx context.Context, opt Options) ([]workload.NamedConfig, []Cell) {
	configs := workload.TableI()
	var tasks []Task
	for _, nc := range configs {
		for _, e := range impls.All() {
			tasks = append(tasks, Task{Engine: e, Cfg: nc.Cfg, Spec: gpusim.TeslaK40c()})
		}
	}
	return configs, RunCells(ctx, tasks, opt)
}

// Figure6 profiles every implementation over the five Table I
// configurations, reporting runtime plus the five nvprof metrics,
// weighted over the top kernels as in the paper.
func Figure6() []MetricsRow {
	return Figure6Ctx(context.Background(), Options{})
}

// Figure6Ctx is Figure6 through the parallel executor.
func Figure6Ctx(ctx context.Context, opt Options) []MetricsRow {
	configs, cells := tableIGrid(ctx, opt)
	per := len(cells) / len(configs)
	var out []MetricsRow
	for i, nc := range configs {
		for _, c := range cells[i*per : (i+1)*per] {
			out = append(out, MetricsRow{Config: nc.Name, Impl: c.Impl, Cell: c})
		}
	}
	return out
}

// TransferRow is one implementation's transfer share on one Table I
// configuration (Figure 7).
type TransferRow struct {
	Config string
	Impl   string
	Share  float64
	Ok     bool
}

// Figure7 measures the CPU↔GPU transfer overhead share over the five
// Table I configurations.
func Figure7() []TransferRow {
	return Figure7Ctx(context.Background(), Options{})
}

// Figure7Ctx is Figure7 through the parallel executor.
func Figure7Ctx(ctx context.Context, opt Options) []TransferRow {
	configs, cells := tableIGrid(ctx, opt)
	per := len(cells) / len(configs)
	var out []TransferRow
	for i, nc := range configs {
		for _, c := range cells[i*per : (i+1)*per] {
			out = append(out, TransferRow{Config: nc.Name, Impl: c.Impl, Share: c.TransferShare, Ok: c.Ok()})
		}
	}
	return out
}

// TableIIRow is one implementation's top-kernel resource usage.
type TableIIRow struct {
	Impl          string
	RegsPerThread int
	SmemPerBlockB int
}

// TableII reports the register and shared-memory footprint of each
// implementation's dominant kernel, reproducing the paper's Table II.
func TableII() []TableIIRow {
	return TableIICtx(context.Background(), Options{})
}

// TableIICtx is TableII with the per-implementation profiling runs
// fanned out over the executor's worker pool (each on its own device).
func TableIICtx(ctx context.Context, opt Options) []TableIIRow {
	engines := impls.All()
	rows := make([]*TableIIRow, len(engines))
	runIndexed(ctx, len(engines), opt, func(ctx context.Context, i int) {
		if ctx.Err() != nil {
			return
		}
		e := engines[i]
		dev := gpusim.New(gpusim.TeslaK40c())
		plan, err := e.Plan(dev, workload.Base())
		if err != nil {
			return
		}
		if err := plan.Iteration(); err != nil {
			plan.Release()
			return
		}
		// The paper's Table II lists each implementation's characteristic
		// compute kernel: the transform kernel for the FFT engines, the
		// longest-running kernel otherwise.
		var pick *gpusim.KernelStats
		for _, k := range dev.Prof.Kernels() {
			if e.Strategy() == conv.FFT {
				if strings.Contains(k.Name, "decimateInFrequency") ||
					strings.Contains(strings.ToLower(k.Name), "fft") {
					pick = k
					break
				}
				continue
			}
			pick = k // Kernels() is sorted by total time
			break
		}
		if pick != nil {
			rows[i] = &TableIIRow{
				Impl:          e.Name(),
				RegsPerThread: pick.RegsPerThread,
				SmemPerBlockB: pick.SmemPerBlock,
			}
		}
		plan.Release()
	})
	var out []TableIIRow
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Impl < out[j].Impl })
	return out
}
