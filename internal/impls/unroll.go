package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// unrollParams captures everything that distinguishes the three
// explicit-unrolling implementations (Caffe, Torch-cunn,
// Theano-CorrMM): Table II resource usage, kernel quality knobs, buffer
// policy, and transfer policy.
type unrollParams struct {
	name string

	// Table II: resource usage of the implementation's top kernels.
	gemmRegs int
	gemmSmem int // bytes per block

	// GEMM kernel quality.
	gemmBaseEff   float64 // sustained fraction of peak for ideal shapes
	gemmRowSat    float64 // m (filter count) at which row-tile utilisation saturates
	gemmLoadTrans float64 // transactions per request (1 = coalesced)
	gemmL2Hit     float64 // fraction of replayed transactions absorbed by L2
	gemmBroadcast float64 // shared-memory broadcast factor (cuBLAS tiles)
	gemmConflict  float64 // shared-memory bank-conflict rate

	// Unrolling kernels (im2col/col2im) quality.
	im2colName  string
	col2imName  string
	imLoadTrans float64
	imL2Hit     float64

	// Memory policy: Torch-cunn reuses one output-sized gradient buffer
	// in place, which is why it peaks ~1.7 GB lower than Caffe on the
	// big sweeps.
	inPlaceGrads bool

	transfer transferPolicy
}

type unrollEngine struct{ p unrollParams }

func (e *unrollEngine) Name() string            { return e.p.name }
func (e *unrollEngine) Strategy() conv.Strategy { return conv.Unrolling }

// Supports: unrolling convolution has no shape limitation — the paper
// calls these implementations "most flexible in configuration
// selection as they support any possible shapes".
func (e *unrollEngine) Supports(cfg conv.Config) error {
	return cfg.Validate()
}

func (e *unrollEngine) Plan(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.plan(dev, cfg, false)
}

// PlanShared plans with framework-owned activations.
func (e *unrollEngine) PlanShared(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.plan(dev, cfg, true)
}

func (e *unrollEngine) plan(dev *gpusim.Device, cfg conv.Config, shared bool) (Plan, error) {
	cfg = cfg.WithDefaults()
	if err := e.Supports(cfg); err != nil {
		return nil, err
	}
	bs := &bufSet{dev: dev}
	if err := bs.allocTrainingSet(cfg, e.p.inPlaceGrads, false, shared); err != nil {
		bs.release()
		return nil, err
	}
	// One column buffer, reused image by image (Caffe's scheme).
	if err := bs.alloc(geomColBytes(cfg), "col-buffer"); err != nil {
		bs.release()
		return nil, err
	}
	return &unrollPlan{engine: e, dev: dev, cfg: cfg, bufs: bs}, nil
}

// geomColBytes is the im2col workspace for one image.
func geomColBytes(cfg conv.Config) int64 {
	o := cfg.Out()
	return int64(cfg.Channels*cfg.Kernel*cfg.Kernel) * int64(o*o) * 4
}

type unrollPlan struct {
	engine *unrollEngine
	dev    *gpusim.Device
	cfg    conv.Config
	bufs   *bufSet
	ws     workspace.Arena // host scratch of the plan's passes
}

func (p *unrollPlan) Config() conv.Config { return p.cfg }

// Release frees the plan's device memory and drops its host arena.
func (p *unrollPlan) Release() {
	p.bufs.release()
	p.ws = workspace.Arena{}
}

// gemmDims returns the per-image GEMM dimensions of the forward pass:
// (f × o²) = (f × ck²) · (ck² × o²).
func (p *unrollPlan) gemmDims() (m, n, k int) {
	o := p.cfg.Out()
	return p.cfg.Filters, o * o, p.cfg.Channels * p.cfg.Kernel * p.cfg.Kernel
}

// gemmSpec builds the cuBLAS-style SGEMM kernel launch for one image.
// Row-tile utilisation penalises skinny GEMMs (few filters), and
// reduction-depth utilisation penalises short k (small c·k²) — the two
// shape effects behind the paper's filter-count and kernel-size trends.
func (p *unrollPlan) gemmSpec(m, n, k int) gpusim.KernelSpec {
	e := p.engine.p
	rowUtil := float64(m) / e.gemmRowSat
	if rowUtil > 1 {
		rowUtil = 1
	}
	kUtil := float64(k) / 128
	if kUtil > 1 {
		kUtil = 1
	}
	eff := e.gemmBaseEff * (0.30 + 0.70*rowUtil) * (0.45 + 0.55*kUtil)

	// DRAM traffic of a 64×64-tiled GEMM: each A panel is re-read once
	// per column tile and vice versa; replayed transactions mostly hit
	// L2.
	tiles := func(x int) float64 { return float64((x + 63) / 64) }
	useful := 4 * (float64(m)*float64(k)*tiles(n)/4 + float64(k)*float64(n)*tiles(m)/4 + 2*float64(m)*float64(n))

	return gpusim.KernelSpec{
		Name:             "cublas_sgemm",
		Grid:             gpusim.Dim3{X: int(tiles(m) * tiles(n))},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    e.gemmRegs,
		SharedPerBlock:   e.gemmSmem,
		FLOPs:            2 * float64(m) * float64(n) * float64(k),
		GlobalLoadBytes:  useful * 0.8,
		GlobalStoreBytes: useful * 0.2,
		LoadTransPerReq:  e.gemmLoadTrans,
		StoreTransPerReq: e.gemmLoadTrans * 0.6,
		L2HitFrac:        e.gemmL2Hit,
		UsesShared:       true,
		SharedBroadcast:  e.gemmBroadcast,
		BankConflictRate: e.gemmConflict,
		ActiveThreadFrac: 0.99,
		ILP:              3,
		EfficiencyScale:  eff,
	}
}

// imSpec builds the im2col / col2im kernel launch for one image: a
// memory-bound gather (or scatter-accumulate) whose useful traffic is
// the column buffer plus the image.
func (p *unrollPlan) imSpec(name string, scatter bool) gpusim.KernelSpec {
	e := p.engine.p
	colBytes := float64(geomColBytes(p.cfg))
	imgBytes := float64(p.cfg.Channels*p.cfg.Input*p.cfg.Input) * 4
	load, store := colBytes*0.15+imgBytes, colBytes
	if scatter {
		// col2im: stream the column buffer in, accumulate into the
		// image; the read-modify-write traffic stays mostly in L2.
		load, store = colBytes, colBytes*0.5
	}
	o := p.cfg.Out()
	return gpusim.KernelSpec{
		Name:             name,
		Grid:             gpusim.Dim3{X: (p.cfg.Channels*o*o + 255) / 256},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    28,
		FLOPs:            colBytes / 4 * 2, // index arithmetic, negligible
		GlobalLoadBytes:  load,
		GlobalStoreBytes: store,
		LoadTransPerReq:  e.imLoadTrans,
		StoreTransPerReq: e.imLoadTrans * 0.8,
		L2HitFrac:        e.imL2Hit,
		ActiveThreadFrac: 0.97,
		ILP:              1.5,
		EfficiencyScale:  0.9,
	}
}

// forwardSim launches the forward kernel sequence: per image, one
// im2col and one SGEMM (Caffe's loop-over-batch structure).
func (p *unrollPlan) forwardSim() error {
	m, n, k := p.gemmDims()
	for i := 0; i < p.cfg.Batch; i++ {
		if _, err := p.dev.Launch(p.imSpec(p.engine.p.im2colName, false)); err != nil {
			return err
		}
		if _, err := p.dev.Launch(p.gemmSpec(m, n, k)); err != nil {
			return err
		}
	}
	return nil
}

func (p *unrollPlan) Forward(x, w, y *tensor.Tensor) error {
	defer beginPhase(p.dev, "forward")()
	if err := p.forwardSim(); err != nil {
		return err
	}
	if x != nil {
		conv.UnrollForward(&p.ws, p.cfg, x, w, y)
	}
	return nil
}

func (p *unrollPlan) BackwardData(dy, w, dx *tensor.Tensor) error {
	defer beginPhase(p.dev, "backward_data")()
	m, n, k := p.gemmDims()
	for i := 0; i < p.cfg.Batch; i++ {
		// col = Wᵀ·dy: GEMM of (ck² × o²) with reduction depth f.
		if _, err := p.dev.Launch(p.gemmSpec(k, n, m)); err != nil {
			return err
		}
		if _, err := p.dev.Launch(p.imSpec(p.engine.p.col2imName, true)); err != nil {
			return err
		}
	}
	if dy != nil {
		conv.UnrollBackwardData(&p.ws, p.cfg, dy, w, dx)
	}
	return nil
}

func (p *unrollPlan) BackwardFilter(x, dy, dw *tensor.Tensor) error {
	defer beginPhase(p.dev, "backward_filter")()
	m, n, k := p.gemmDims()
	for i := 0; i < p.cfg.Batch; i++ {
		if _, err := p.dev.Launch(p.imSpec(p.engine.p.im2colName, false)); err != nil {
			return err
		}
		// dw += dy·colᵀ: GEMM of (f × ck²) with reduction depth o².
		if _, err := p.dev.Launch(p.gemmSpec(m, k, n)); err != nil {
			return err
		}
	}
	if x != nil {
		conv.UnrollBackwardFilter(&p.ws, p.cfg, x, dy, dw)
	}
	return nil
}

func (p *unrollPlan) Inference() error {
	p.engine.p.transfer.doTransfer(p.dev, p.cfg)
	return p.Forward(nil, nil, nil)
}

func (p *unrollPlan) Iteration() error {
	p.engine.p.transfer.doTransfer(p.dev, p.cfg)
	if err := p.Forward(nil, nil, nil); err != nil {
		return err
	}
	if err := p.BackwardData(nil, nil, nil); err != nil {
		return err
	}
	return p.BackwardFilter(nil, nil, nil)
}

// The three explicit-unrolling engines.

// NewCaffe returns the Caffe engine: per-image im2col + cuBLAS SGEMM,
// one persistent column buffer, full gradient buffers, and a pinned
// prefetch thread that hides input transfers (its Figure 7 share is
// ~0%).
func NewCaffe() Engine {
	return &unrollEngine{p: unrollParams{
		name:     "Caffe",
		gemmRegs: 86, gemmSmem: 8704, // Table II: 86 regs, 8.5 KB
		gemmBaseEff: 0.64, gemmRowSat: 128,
		gemmLoadTrans: 6.0, gemmL2Hit: 0.93,
		gemmBroadcast: 1.10, gemmConflict: 0.08,
		im2colName: "im2col_gpu_kernel", col2imName: "col2im_gpu_kernel",
		imLoadTrans: 4.0, imL2Hit: 0.88,
		inPlaceGrads: false,
		transfer:     transferPolicy{pinned: true, async: true},
	}}
}

// NewTorchCunn returns the Torch-cunn engine: the same im2col+SGEMM
// scheme as Caffe but with in-place gradient buffer reuse (the paper's
// lowest-memory unrolling implementation) and synchronous pinned input
// transfers (1–15% of runtime in Figure 7).
func NewTorchCunn() Engine {
	return &unrollEngine{p: unrollParams{
		name:     "Torch-cunn",
		gemmRegs: 84, gemmSmem: 8294, // Table II: 84 regs, 8.1 KB
		gemmBaseEff: 0.62, gemmRowSat: 128,
		gemmLoadTrans: 5.5, gemmL2Hit: 0.93,
		gemmBroadcast: 1.08, gemmConflict: 0.10,
		im2colName: "im2col_gpu_kernel", col2imName: "col2im_gpu_kernel",
		imLoadTrans: 4.0, imL2Hit: 0.88,
		inPlaceGrads: true,
		transfer:     transferPolicy{pinned: true, async: false},
	}}
}

// NewTheanoCorrMM returns the Theano-CorrMM engine: im2col+SGEMM with a
// larger row tile that only reaches peak utilisation at high filter
// counts (it overtakes cuDNN beyond ~160 filters, Figure 3c), the worst
// global-load coalescing of the group (11.6–15.8% in Figure 6), and
// synchronous pageable transfers — the source of its >60% transfer
// share on Conv2 in Figure 7.
func NewTheanoCorrMM() Engine {
	return &unrollEngine{p: unrollParams{
		name:     "Theano-CorrMM",
		gemmRegs: 72, gemmSmem: 7168, // Table II: 72 regs, 7 KB
		gemmBaseEff: 1.08, gemmRowSat: 170, // 192-row tiles: slow ramp, high ceiling
		gemmLoadTrans: 7.5, gemmL2Hit: 0.97,
		gemmBroadcast: 1.05, gemmConflict: 0.12,
		im2colName: "corrMM_im2col_kernel", col2imName: "corrMM_col2im_kernel",
		imLoadTrans: 6.0, imL2Hit: 0.93,
		inPlaceGrads: false,
		transfer: transferPolicy{
			pinned: false, async: false,
			spillThreshold: 256 << 20, spillFactor: 2.5,
		},
	}}
}
