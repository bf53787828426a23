package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/fft"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// fftParams distinguishes fbfft from Theano-fft: fbfft is hand-written
// CUDA exploiting Hermitian symmetry with tight transposes around a
// batched CGEMM; Theano-fft allocates full complex grids, pads on
// device with poorly-coalesced copy kernels, suffers shared-memory bank
// conflicts and warp divergence in its transform (Table II shows it
// uses just 2 registers/thread — high occupancy, terrible per-thread
// throughput), and stages data synchronously through pageable memory.
type fftParams struct {
	name string

	hermitian bool // store n·(n/2+1) bins instead of n²
	tiled     bool // overlap-add tiling for large inputs (fbfft)

	fftRegs, fftSmem int
	fftEff           float64
	fftConflictRate  float64
	fftBroadcast     float64
	fftWEE           float64
	fftILP           float64
	fftTrans         float64 // transactions/request of the transform kernels
	fftL2            float64
	occDerate        float64 // achieved/theoretical occupancy of the kernels

	cgemmEff float64

	transposeTrans float64 // transactions/request of the transpose kernels
	transposeL2    float64

	padKernel bool // Theano-fft's device-side data-preparation pass

	// reuseTransforms: the backward-filter pass reuses the spectra of
	// x and dy computed by the forward and backward-data passes of the
	// same iteration instead of re-transforming them.
	reuseTransforms bool

	doubleBuffer bool // fbfft keeps a second copy of all grids for transpose

	transfer transferPolicy
}

type fftEngine struct{ p fftParams }

func (e *fftEngine) Name() string            { return e.p.name }
func (e *fftEngine) Strategy() conv.Strategy { return conv.FFT }

// Supports enforces the FFT strategy's shape limitation: stride must be
// 1 ("FFT-based convolutions are applicable to any configuration shapes
// except that their stride must be 1").
func (e *fftEngine) Supports(cfg conv.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Stride != 1 {
		return errUnsupported(e.Name(), cfg, "FFT-based convolution only supports stride 1")
	}
	return nil
}

// gridBins returns the number of frequency bins per 2-D grid.
func (e *fftEngine) gridBins(n int) int {
	if e.p.hermitian {
		return n * (n/2 + 1)
	}
	return n * n
}

// tiling picks the transform size and overlap-add tile count for a
// config. Theano-fft always pads the whole image to the next power of
// two; fbfft decomposes large inputs into overlapping power-of-two
// tiles and picks the tile size that minimises total frequency bins —
// the behaviour that keeps its runtime competitive on inputs past 128
// while still producing the step-function memory profile of Figure 5.
func (e *fftEngine) tiling(cfg conv.Config) (n, tilesPerAxis int) {
	ip := cfg.Input + 2*cfg.Pad
	full := fft.NextPow2(ip)
	if !e.p.tiled {
		return full, 1
	}
	o := ip - cfg.Kernel + 1 // stride 1 output extent
	bestN, bestTiles, bestBins := full, 1, e.gridBins(full)
	for cand := fft.NextPow2(cfg.Kernel + 1); cand < full; cand *= 2 {
		step := cand - cfg.Kernel + 1
		if step <= 0 {
			continue
		}
		t := (o + step - 1) / step
		bins := t * t * e.gridBins(cand)
		if bins < bestBins {
			bestN, bestTiles, bestBins = cand, t, bins
		}
	}
	return bestN, bestTiles
}

func (e *fftEngine) Plan(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.plan(dev, cfg, false)
}

// PlanShared plans with framework-owned activations.
func (e *fftEngine) PlanShared(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.plan(dev, cfg, true)
}

func (e *fftEngine) plan(dev *gpusim.Device, cfg conv.Config, shared bool) (Plan, error) {
	cfg = cfg.WithDefaults()
	if err := e.Supports(cfg); err != nil {
		return nil, err
	}
	bs := &bufSet{dev: dev}
	if err := bs.allocTrainingSet(cfg, false, false, shared); err != nil {
		bs.release()
		return nil, err
	}
	// Frequency-domain workspace: transformed inputs, filters and
	// outputs, all padded to the power-of-two plan size. This padding
	// is the step-function memory blow-up of Figure 5.
	n, tiles := e.tiling(cfg)
	t2 := int64(tiles * tiles)
	bins := int64(e.gridBins(n))
	grids := int64(cfg.Batch*cfg.Channels)*t2 +
		int64(cfg.Filters*cfg.Channels) +
		int64(cfg.Batch*cfg.Filters)*t2
	freqBytes := grids * bins * 8
	if e.p.doubleBuffer {
		freqBytes *= 2
	}
	if err := bs.alloc(freqBytes, "fft-workspace"); err != nil {
		bs.release()
		return nil, err
	}
	return &fftPlan{engine: e, dev: dev, cfg: cfg, bufs: bs, n: n, tiles: tiles * tiles}, nil
}

type fftPlan struct {
	engine *fftEngine
	dev    *gpusim.Device
	cfg    conv.Config
	bufs   *bufSet
	ws     workspace.Arena // host scratch of the plan's passes
	n      int             // per-axis transform size
	tiles  int             // total overlap-add tiles (1 when untiled)

	// Spectra-residency flags for transform reuse within an iteration.
	xTransformed  bool
	dyTransformed bool
}

func (p *fftPlan) Config() conv.Config { return p.cfg }

// Release frees the plan's device memory and drops its host arena.
func (p *fftPlan) Release() {
	p.bufs.release()
	p.ws = workspace.Arena{}
}

// fftSpec is one batched transform launch over `grids` 2-D grids.
func (p *fftPlan) fftSpec(name string, grids int) gpusim.KernelSpec {
	e := p.engine.p
	bins := float64(p.engine.gridBins(p.n))
	flops := fft.FLOPs2D(p.n) * float64(grids)
	if e.hermitian {
		flops /= 2
	}
	bytes := float64(grids) * bins * 8
	return gpusim.KernelSpec{
		Name:             name,
		Grid:             gpusim.Dim3{X: grids},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    e.fftRegs,
		SharedPerBlock:   e.fftSmem,
		FLOPs:            flops,
		GlobalLoadBytes:  bytes,
		GlobalStoreBytes: bytes,
		LoadTransPerReq:  e.fftTrans,
		StoreTransPerReq: e.fftTrans,
		L2HitFrac:        e.fftL2,
		UsesShared:       true,
		SharedBroadcast:  e.fftBroadcast,
		BankConflictRate: e.fftConflictRate,
		ActiveThreadFrac: e.fftWEE,
		ILP:              e.fftILP,
		EfficiencyScale:  e.fftEff,
		OccupancyDerate:  e.occDerate,
	}
}

// transposeSpec converts grids between BDHW and HWBD layouts around the
// frequency-domain CGEMM (fbfft's Transpose kernel).
func (p *fftPlan) transposeSpec(grids int) gpusim.KernelSpec {
	e := p.engine.p
	bytes := float64(grids) * float64(p.engine.gridBins(p.n)) * 8
	return gpusim.KernelSpec{
		Name:             "transpose",
		Grid:             gpusim.Dim3{X: grids},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    24,
		SharedPerBlock:   4 * 1024,
		FLOPs:            0,
		GlobalLoadBytes:  bytes,
		GlobalStoreBytes: bytes,
		LoadTransPerReq:  e.transposeTrans,
		StoreTransPerReq: e.transposeTrans,
		L2HitFrac:        e.transposeL2,
		UsesShared:       true,
		SharedBroadcast:  1,
		BankConflictRate: e.fftConflictRate * 0.6,
		ActiveThreadFrac: 0.99,
		ILP:              2,
		EfficiencyScale:  0.9,
		OccupancyDerate:  e.occDerate,
	}
}

// cgemmSpec is the batched per-frequency-bin complex GEMM: one m×n×k
// complex product per bin.
func (p *fftPlan) cgemmSpec(m, n, k int) gpusim.KernelSpec {
	e := p.engine.p
	bins := p.engine.gridBins(p.n) * p.tiles
	flops := 8 * float64(m) * float64(n) * float64(k) * float64(bins)
	// Operand traffic: each bin reads its m×k and k×n panels once.
	bytes := float64(bins) * 8 * (float64(m*k) + float64(k*n) + float64(m*n))
	kUtil := float64(k) / 16
	if kUtil > 1 {
		kUtil = 1
	}
	eff := e.cgemmEff * (0.55 + 0.45*kUtil)
	return gpusim.KernelSpec{
		Name:             "cgemm_batched",
		Grid:             gpusim.Dim3{X: bins},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    64,
		SharedPerBlock:   6 * 1024,
		FLOPs:            flops,
		GlobalLoadBytes:  bytes * 0.8,
		GlobalStoreBytes: bytes * 0.2,
		LoadTransPerReq:  1.8,
		StoreTransPerReq: 1.4,
		L2HitFrac:        0.5,
		UsesShared:       true,
		SharedBroadcast:  1.1,
		BankConflictRate: 0.1,
		ActiveThreadFrac: 0.99,
		ILP:              3,
		EfficiencyScale:  eff,
	}
}

// padSpec is Theano-fft's device-side zero-pad / data-preparation pass.
func (p *fftPlan) padSpec(grids int) gpusim.KernelSpec {
	bytes := float64(grids) * float64(p.engine.gridBins(p.n)) * 8
	return gpusim.KernelSpec{
		Name:             "pad_and_copy",
		Grid:             gpusim.Dim3{X: grids},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    16,
		GlobalLoadBytes:  bytes * 0.5,
		GlobalStoreBytes: bytes,
		LoadTransPerReq:  5.0,
		StoreTransPerReq: 4.0,
		L2HitFrac:        0.3,
		ActiveThreadFrac: 0.9,
		ILP:              1,
		EfficiencyScale:  0.7,
		OccupancyDerate:  p.engine.p.occDerate,
	}
}

// pass simulates one frequency-domain pass: forward transforms of the
// two operand grid sets, layout transposes, the batched CGEMM, and the
// inverse transform of the result grids. When inTransformed is set the
// operands are already resident in the frequency domain from an earlier
// pass of the same iteration (fbfft reuses the spectra of x and dy for
// the weight-gradient pass), so the input-side transforms are skipped.
func (p *fftPlan) pass(inGrids1, inGrids2, outGrids, m, n, k int, inTransformed bool) error {
	e := p.engine.p
	if !inTransformed {
		if e.padKernel {
			if _, err := p.dev.Launch(p.padSpec(inGrids1 + inGrids2)); err != nil {
				return err
			}
		}
		if _, err := p.dev.Launch(p.fftSpec("decimateInFrequency", inGrids1+inGrids2)); err != nil {
			return err
		}
		if _, err := p.dev.Launch(p.transposeSpec(inGrids1 + inGrids2)); err != nil {
			return err
		}
	}
	if _, err := p.dev.Launch(p.cgemmSpec(m, n, k)); err != nil {
		return err
	}
	if _, err := p.dev.Launch(p.transposeSpec(outGrids)); err != nil {
		return err
	}
	_, err := p.dev.Launch(p.fftSpec("decimateInFrequencyInverse", outGrids))
	return err
}

func (p *fftPlan) Forward(x, w, y *tensor.Tensor) error {
	defer beginPhase(p.dev, "forward")()
	cfg := p.cfg
	// y_f = Σ_c X_c · conj(W_fc): per bin an (f×c)·(c×b) product.
	// Activation and output grids multiply with the overlap-add tile
	// count; filter grids are transformed once and reused per tile.
	if err := p.pass(cfg.Batch*cfg.Channels*p.tiles, cfg.Filters*cfg.Channels,
		cfg.Batch*cfg.Filters*p.tiles, cfg.Filters, cfg.Batch, cfg.Channels, false); err != nil {
		return err
	}
	p.xTransformed = true
	if x != nil {
		conv.FFTForward(&p.ws, cfg, x, w, y)
	}
	return nil
}

func (p *fftPlan) BackwardData(dy, w, dx *tensor.Tensor) error {
	defer beginPhase(p.dev, "backward_data")()
	cfg := p.cfg
	// dx_c = Σ_f DY_f · W_fc: per bin a (c×f)·(f×b) product.
	if err := p.pass(cfg.Batch*cfg.Filters*p.tiles, cfg.Filters*cfg.Channels,
		cfg.Batch*cfg.Channels*p.tiles, cfg.Channels, cfg.Batch, cfg.Filters, false); err != nil {
		return err
	}
	p.dyTransformed = true
	if dy != nil {
		conv.FFTBackwardData(&p.ws, cfg, dy, w, dx)
	}
	return nil
}

func (p *fftPlan) BackwardFilter(x, dy, dw *tensor.Tensor) error {
	defer beginPhase(p.dev, "backward_filter")()
	cfg := p.cfg
	// dw_fc = Σ_b X_bc · conj(DY_bf): per bin an (f×b)·(b×c) product
	// with the batch as the reduction depth; the filter-gradient grids
	// accumulate across tiles.
	reuse := p.engine.p.reuseTransforms && p.xTransformed && p.dyTransformed
	if err := p.pass(cfg.Batch*cfg.Channels*p.tiles, cfg.Batch*cfg.Filters*p.tiles,
		cfg.Filters*cfg.Channels, cfg.Filters, cfg.Channels, cfg.Batch, reuse); err != nil {
		return err
	}
	p.xTransformed, p.dyTransformed = false, false
	if x != nil {
		conv.FFTBackwardFilter(&p.ws, cfg, x, dy, dw)
	}
	return nil
}

func (p *fftPlan) Inference() error {
	p.engine.p.transfer.doTransfer(p.dev, p.cfg)
	return p.Forward(nil, nil, nil)
}

func (p *fftPlan) Iteration() error {
	p.engine.p.transfer.doTransfer(p.dev, p.cfg)
	if err := p.Forward(nil, nil, nil); err != nil {
		return err
	}
	if err := p.BackwardData(nil, nil, nil); err != nil {
		return err
	}
	return p.BackwardFilter(nil, nil, nil)
}

// FbfftOptions toggles fbfft's two key design choices for ablation
// studies: overlap-add tiling of large inputs and the reuse of x/dy
// spectra across the passes of one iteration.
type FbfftOptions struct {
	DisableTiling         bool
	DisableTransformReuse bool
}

// NewFbfftVariant builds an fbfft engine with selected optimisations
// disabled — the ablation knobs behind the design-choice benchmarks in
// DESIGN.md. The returned engine's name records the ablation.
func NewFbfftVariant(opts FbfftOptions) Engine {
	e := NewFbfft().(*fftEngine)
	if opts.DisableTiling {
		e.p.tiled = false
		e.p.name += "/no-tiling"
	}
	if opts.DisableTransformReuse {
		e.p.reuseTransforms = false
		e.p.name += "/no-reuse"
	}
	return e
}

// NewFbfft returns the fbfft engine: Facebook's hand-tuned FFT
// convolution (decimation in frequency, Hermitian-symmetric grids,
// BDHW↔HWBD transposes around a batched CGEMM). The paper's overall
// fastest implementation for large kernels, at the cost of the highest
// memory consumption.
func NewFbfft() Engine {
	return &fftEngine{p: fftParams{
		name:      "fbfft",
		hermitian: true,
		tiled:     true,
		fftRegs:   106, fftSmem: 10 * 1024, // Table II
		fftEff: 0.75, fftConflictRate: 0.08, fftBroadcast: 1.1,
		fftWEE: 0.98, fftILP: 3, fftTrans: 1.5, fftL2: 0.55,
		occDerate:       0.85,
		cgemmEff:        0.75,
		reuseTransforms: true,
		transposeTrans:  1.5, transposeL2: 0.55,
		padKernel:    false,
		doubleBuffer: true,
		transfer:     transferPolicy{pinned: true, async: true}, // ≈0% in Fig. 7
	}}
}

// NewTheanoFFT returns the Theano-fft engine: the same strategy as
// fbfft implemented through Theano's generic graph — full complex
// grids, device-side padding passes, bank-conflicted transform kernels
// with divergent warps (WEE 66–81% in Figure 6), minimal register use
// (2 registers/thread in Table II: high occupancy, poor throughput),
// and synchronous pageable host staging. The paper's slowest
// implementation throughout.
func NewTheanoFFT() Engine {
	return &fftEngine{p: fftParams{
		name:      "Theano-fft",
		hermitian: false,
		fftRegs:   2, fftSmem: 4608, // Table II: 2 regs, 4.5 KB
		fftEff: 0.28, fftConflictRate: 10.0, fftBroadcast: 1.0,
		fftWEE: 0.74, fftILP: 1, fftTrans: 3.5, fftL2: 0.3,
		occDerate:      0.50,
		cgemmEff:       0.30,
		transposeTrans: 4.0, transposeL2: 0.35,
		padKernel:    true,
		doubleBuffer: false,
		transfer:     transferPolicy{pinned: false, async: false, factor: 2},
	}}
}
