package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/fft"
	"gpucnn/internal/gpusim"
)

// fftParams distinguishes fbfft from Theano-fft: fbfft is hand-written
// CUDA exploiting Hermitian symmetry with tight transposes around a
// batched CGEMM; Theano-fft allocates full complex grids, pads on
// device with poorly-coalesced copy kernels, suffers shared-memory bank
// conflicts and warp divergence in its transform (Table II shows it
// uses just 2 registers/thread — high occupancy, terrible per-thread
// throughput), and stages data synchronously through pageable memory.
type fftParams struct {
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
}

// fftHost computes every pass by FFT convolution.
var fftHost = hostStrategy{conv.FFTForward, conv.FFTBackwardData, conv.FFTBackwardFilter}

// strideOne enforces the FFT strategy's shape limitation: stride must
// be 1 ("FFT-based convolutions are applicable to any configuration
// shapes except that their stride must be 1").
func strideOne(name string, cfg conv.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Stride != 1 {
		return errUnsupported(name, cfg, "FFT-based convolution only supports stride 1")
	}
	return nil
}

// fftEngine builds an FFT-strategy engine over the given kernels.
func fftEngine(name string, p fftParams, tp transferPolicy) Engine {
	return &engine{name: name, strategy: conv.FFT, limits: strideOne, transfer: tp, host: fftHost, model: p.model}
}

// gridBins returns the number of frequency bins per 2-D grid.
func (p *fftParams) gridBins(n int) int {
	if p.hermitian {
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
func (p *fftParams) tiling(cfg conv.Config) (n, tilesPerAxis int) {
	ip := cfg.Input + 2*cfg.Pad
	full := fft.NextPow2(ip)
	if !p.tiled {
		return full, 1
	}
	o := ip - cfg.Kernel + 1 // stride 1 output extent
	bestN, bestTiles, bestBins := full, 1, p.gridBins(full)
	for cand := fft.NextPow2(cfg.Kernel + 1); cand < full; cand *= 2 {
		step := cand - cfg.Kernel + 1
		if step <= 0 {
			continue
		}
		t := (o + step - 1) / step
		bins := t * t * p.gridBins(cand)
		if bins < bestBins {
			bestN, bestTiles, bestBins = cand, t, bins
		}
	}
	return bestN, bestTiles
}

// fftModel is the launch model of one planned FFT convolution. Its
// tiling is fixed at plan time; the spectra-residency flags carry
// transform reuse from pass to pass within an iteration.
type fftModel struct {
	fftParams
	cfg   conv.Config
	n     int // per-axis transform size
	tiles int // total overlap-add tiles (1 when untiled)

	xTransformed  bool
	dyTransformed bool
}

func (p *fftParams) model(cfg conv.Config) launchModel {
	n, tiles := p.tiling(cfg)
	return &fftModel{fftParams: *p, cfg: cfg, n: n, tiles: tiles * tiles}
}

// workspace is the frequency-domain workspace: transformed inputs,
// filters and outputs, all padded to the power-of-two plan size. This
// padding is the step-function memory blow-up of Figure 5.
func (p *fftModel) workspace() (string, int64) {
	cfg, t2 := p.cfg, int64(p.tiles)
	grids := int64(cfg.Batch*cfg.Channels)*t2 +
		int64(cfg.Filters*cfg.Channels) +
		int64(cfg.Batch*cfg.Filters)*t2
	freqBytes := grids * int64(p.gridBins(p.n)) * 8
	if p.doubleBuffer {
		freqBytes *= 2
	}
	return "fft-workspace", freqBytes
}

// fftSpec is one batched transform launch over `grids` 2-D grids.
func (p *fftModel) fftSpec(name string, grids int) gpusim.KernelSpec {
	bins := float64(p.gridBins(p.n))
	flops := fft.FLOPs2D(p.n) * float64(grids)
	if p.hermitian {
		flops /= 2
	}
	bytes := float64(grids) * bins * 8
	return gpusim.KernelSpec{
		Name:             name,
		Grid:             gpusim.Dim3{X: grids},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    p.fftRegs,
		SharedPerBlock:   p.fftSmem,
		FLOPs:            flops,
		GlobalLoadBytes:  bytes,
		GlobalStoreBytes: bytes,
		LoadTransPerReq:  p.fftTrans,
		StoreTransPerReq: p.fftTrans,
		L2HitFrac:        p.fftL2,
		UsesShared:       true,
		SharedBroadcast:  p.fftBroadcast,
		BankConflictRate: p.fftConflictRate,
		ActiveThreadFrac: p.fftWEE,
		ILP:              p.fftILP,
		EfficiencyScale:  p.fftEff,
		OccupancyDerate:  p.occDerate,
	}
}

// transposeSpec converts grids between BDHW and HWBD layouts around the
// frequency-domain CGEMM (fbfft's Transpose kernel).
func (p *fftModel) transposeSpec(grids int) gpusim.KernelSpec {
	bytes := float64(grids) * float64(p.gridBins(p.n)) * 8
	return gpusim.KernelSpec{
		Name:             "transpose",
		Grid:             gpusim.Dim3{X: grids},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    24,
		SharedPerBlock:   4 * 1024,
		FLOPs:            0,
		GlobalLoadBytes:  bytes,
		GlobalStoreBytes: bytes,
		LoadTransPerReq:  p.transposeTrans,
		StoreTransPerReq: p.transposeTrans,
		L2HitFrac:        p.transposeL2,
		UsesShared:       true,
		SharedBroadcast:  1,
		BankConflictRate: p.fftConflictRate * 0.6,
		ActiveThreadFrac: 0.99,
		ILP:              2,
		EfficiencyScale:  0.9,
		OccupancyDerate:  p.occDerate,
	}
}

// cgemmSpec is the batched per-frequency-bin complex GEMM: one m×n×k
// complex product per bin.
func (p *fftModel) cgemmSpec(m, n, k int) gpusim.KernelSpec {
	bins := p.gridBins(p.n) * p.tiles
	flops := 8 * float64(m) * float64(n) * float64(k) * float64(bins)
	// Operand traffic: each bin reads its m×k and k×n panels once.
	bytes := float64(bins) * 8 * (float64(m*k) + float64(k*n) + float64(m*n))
	kUtil := float64(k) / 16
	if kUtil > 1 {
		kUtil = 1
	}
	eff := p.cgemmEff * (0.55 + 0.45*kUtil)
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
func (p *fftModel) padSpec(grids int) gpusim.KernelSpec {
	bytes := float64(grids) * float64(p.gridBins(p.n)) * 8
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
		OccupancyDerate:  p.occDerate,
	}
}

// frequencyPass simulates one frequency-domain pass: forward
// transforms of the two operand grid sets, layout transposes, the
// batched CGEMM, and the inverse transform of the result grids. When
// inTransformed is set the operands are already resident in the
// frequency domain from an earlier pass of the same iteration (fbfft
// reuses the spectra of x and dy for the weight-gradient pass), so the
// input-side transforms are skipped.
func (p *fftModel) frequencyPass(dev *gpusim.Device, inGrids1, inGrids2, outGrids, m, n, k int, inTransformed bool) error {
	if !inTransformed {
		if p.padKernel {
			if _, err := dev.Launch(p.padSpec(inGrids1 + inGrids2)); err != nil {
				return err
			}
		}
		if _, err := dev.Launch(p.fftSpec("decimateInFrequency", inGrids1+inGrids2)); err != nil {
			return err
		}
		if _, err := dev.Launch(p.transposeSpec(inGrids1 + inGrids2)); err != nil {
			return err
		}
	}
	if _, err := dev.Launch(p.cgemmSpec(m, n, k)); err != nil {
		return err
	}
	if _, err := dev.Launch(p.transposeSpec(outGrids)); err != nil {
		return err
	}
	_, err := dev.Launch(p.fftSpec("decimateInFrequencyInverse", outGrids))
	return err
}

func (p *fftModel) launch(dev *gpusim.Device, ps pass) error {
	cfg, t := p.cfg, p.tiles
	switch ps {
	case forward:
		// y_f = Σ_c X_c · conj(W_fc): per bin an (f×c)·(c×b) product.
		// Activation and output grids multiply with the overlap-add tile
		// count; filter grids are transformed once and reused per tile.
		if err := p.frequencyPass(dev, cfg.Batch*cfg.Channels*t, cfg.Filters*cfg.Channels,
			cfg.Batch*cfg.Filters*t, cfg.Filters, cfg.Batch, cfg.Channels, false); err != nil {
			return err
		}
		p.xTransformed = true
	case backwardData:
		// dx_c = Σ_f DY_f · W_fc: per bin a (c×f)·(f×b) product.
		if err := p.frequencyPass(dev, cfg.Batch*cfg.Filters*t, cfg.Filters*cfg.Channels,
			cfg.Batch*cfg.Channels*t, cfg.Channels, cfg.Batch, cfg.Filters, false); err != nil {
			return err
		}
		p.dyTransformed = true
	default:
		// dw_fc = Σ_b X_bc · conj(DY_bf): per bin an (f×b)·(b×c) product
		// with the batch as the reduction depth; the filter-gradient
		// grids accumulate across tiles.
		reuse := p.reuseTransforms && p.xTransformed && p.dyTransformed
		if err := p.frequencyPass(dev, cfg.Batch*cfg.Channels*t, cfg.Batch*cfg.Filters*t,
			cfg.Filters*cfg.Channels, cfg.Filters, cfg.Channels, cfg.Batch, reuse); err != nil {
			return err
		}
		p.xTransformed, p.dyTransformed = false, false
	}
	return nil
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
	name, p := "fbfft", fftParams{
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
	}
	if opts.DisableTiling {
		p.tiled = false
		name += "/no-tiling"
	}
	if opts.DisableTransformReuse {
		p.reuseTransforms = false
		name += "/no-reuse"
	}
	return fftEngine(name, p, transferPolicy{pinned: true, async: true}) // ≈0% in Fig. 7
}

// NewFbfft returns the fbfft engine: Facebook's hand-tuned FFT
// convolution (decimation in frequency, Hermitian-symmetric grids,
// BDHW↔HWBD transposes around a batched CGEMM). The paper's overall
// fastest implementation for large kernels, at the cost of the highest
// memory consumption.
func NewFbfft() Engine { return NewFbfftVariant(FbfftOptions{}) }

// NewTheanoFFT returns the Theano-fft engine: the same strategy as
// fbfft implemented through Theano's generic graph — full complex
// grids, device-side padding passes, bank-conflicted transform kernels
// with divergent warps (WEE 66–81% in Figure 6), minimal register use
// (2 registers/thread in Table II: high occupancy, poor throughput),
// and synchronous pageable host staging. The paper's slowest
// implementation throughout.
func NewTheanoFFT() Engine {
	return fftEngine("Theano-fft", fftParams{
		hermitian: false,
		fftRegs:   2, fftSmem: 4608, // Table II: 2 regs, 4.5 KB
		fftEff: 0.28, fftConflictRate: 10.0, fftBroadcast: 1.0,
		fftWEE: 0.74, fftILP: 1, fftTrans: 3.5, fftL2: 0.3,
		occDerate:      0.50,
		cgemmEff:       0.30,
		transposeTrans: 4.0, transposeL2: 0.35,
		padKernel:    true,
		doubleBuffer: false,
	}, transferPolicy{pinned: false, async: false, factor: 2})
}
