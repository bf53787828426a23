package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
)

// unrollParams captures everything that distinguishes the kernels of
// the three explicit-unrolling implementations (Caffe, Torch-cunn,
// Theano-CorrMM): Table II resource usage and kernel quality knobs.
type unrollParams struct {
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
}

// unrollHost computes every pass by explicit unrolling and GEMM; cuDNN
// shares it.
var unrollHost = hostStrategy{conv.UnrollForward, conv.UnrollBackwardData, conv.UnrollBackwardFilter}

// unrollModel launches Caffe's loop-over-batch structure: per image
// and pass, one unrolling kernel and one SGEMM.
type unrollModel struct {
	unrollParams
	cfg conv.Config
}

func (p unrollParams) model(cfg conv.Config) launchModel { return &unrollModel{p, cfg} }

// workspace is one column buffer, reused image by image (Caffe's
// scheme).
func (u *unrollModel) workspace() (string, int64) { return "col-buffer", geomColBytes(u.cfg) }

func (u *unrollModel) launch(dev *gpusim.Device, ps pass) error {
	f, n, k := gemmDims(u.cfg)
	var first, second gpusim.KernelSpec
	switch ps {
	case forward:
		first, second = u.imSpec(u.im2colName, false), u.gemmSpec(f, n, k)
	case backwardData:
		// col = Wᵀ·dy: GEMM of (ck² × o²) with reduction depth f.
		first, second = u.gemmSpec(k, n, f), u.imSpec(u.col2imName, true)
	default:
		// dw += dy·colᵀ: GEMM of (f × ck²) with reduction depth o².
		first, second = u.imSpec(u.im2colName, false), u.gemmSpec(f, k, n)
	}
	for i := 0; i < u.cfg.Batch; i++ {
		if _, err := dev.Launch(first); err != nil {
			return err
		}
		if _, err := dev.Launch(second); err != nil {
			return err
		}
	}
	return nil
}

// geomColBytes is the im2col workspace for one image.
func geomColBytes(cfg conv.Config) int64 {
	o := cfg.Out()
	return int64(cfg.Channels*cfg.Kernel*cfg.Kernel) * int64(o*o) * 4
}

// gemmDims returns the per-image GEMM dimensions of the forward pass:
// (f × o²) = (f × ck²) · (ck² × o²).
func gemmDims(cfg conv.Config) (m, n, k int) {
	o := cfg.Out()
	return cfg.Filters, o * o, cfg.Channels * cfg.Kernel * cfg.Kernel
}

// gemmSpec builds the cuBLAS-style SGEMM kernel launch for one image.
// Row-tile utilisation penalises skinny GEMMs (few filters), and
// reduction-depth utilisation penalises short k (small c·k²) — the two
// shape effects behind the paper's filter-count and kernel-size trends.
func (u *unrollModel) gemmSpec(m, n, k int) gpusim.KernelSpec {
	rowUtil := float64(m) / u.gemmRowSat
	if rowUtil > 1 {
		rowUtil = 1
	}
	kUtil := float64(k) / 128
	if kUtil > 1 {
		kUtil = 1
	}
	eff := u.gemmBaseEff * (0.30 + 0.70*rowUtil) * (0.45 + 0.55*kUtil)

	// DRAM traffic of a 64×64-tiled GEMM: each A panel is re-read once
	// per column tile and vice versa; replayed transactions mostly hit
	// L2.
	tiles := func(x int) float64 { return float64((x + 63) / 64) }
	useful := 4 * (float64(m)*float64(k)*tiles(n)/4 + float64(k)*float64(n)*tiles(m)/4 + 2*float64(m)*float64(n))

	return gpusim.KernelSpec{
		Name:             "cublas_sgemm",
		Grid:             gpusim.Dim3{X: int(tiles(m) * tiles(n))},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    u.gemmRegs,
		SharedPerBlock:   u.gemmSmem,
		FLOPs:            2 * float64(m) * float64(n) * float64(k),
		GlobalLoadBytes:  useful * 0.8,
		GlobalStoreBytes: useful * 0.2,
		LoadTransPerReq:  u.gemmLoadTrans,
		StoreTransPerReq: u.gemmLoadTrans * 0.6,
		L2HitFrac:        u.gemmL2Hit,
		UsesShared:       true,
		SharedBroadcast:  u.gemmBroadcast,
		BankConflictRate: u.gemmConflict,
		ActiveThreadFrac: 0.99,
		ILP:              3,
		EfficiencyScale:  eff,
	}
}

// imSpec builds the im2col / col2im kernel launch for one image: a
// memory-bound gather (or scatter-accumulate) whose useful traffic is
// the column buffer plus the image.
func (u *unrollModel) imSpec(name string, scatter bool) gpusim.KernelSpec {
	colBytes := float64(geomColBytes(u.cfg))
	imgBytes := float64(u.cfg.Channels*u.cfg.Input*u.cfg.Input) * 4
	load, store := colBytes*0.15+imgBytes, colBytes
	if scatter {
		// col2im: stream the column buffer in, accumulate into the
		// image; the read-modify-write traffic stays mostly in L2.
		load, store = colBytes, colBytes*0.5
	}
	o := u.cfg.Out()
	return gpusim.KernelSpec{
		Name:             name,
		Grid:             gpusim.Dim3{X: (u.cfg.Channels*o*o + 255) / 256},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    28,
		FLOPs:            colBytes / 4 * 2, // index arithmetic, negligible
		GlobalLoadBytes:  load,
		GlobalStoreBytes: store,
		LoadTransPerReq:  u.imLoadTrans,
		StoreTransPerReq: u.imLoadTrans * 0.8,
		L2HitFrac:        u.imL2Hit,
		ActiveThreadFrac: 0.97,
		ILP:              1.5,
		EfficiencyScale:  0.9,
	}
}

// The three explicit-unrolling engines. Unrolling convolution has no
// shape limitation — the paper calls these implementations "most
// flexible in configuration selection as they support any possible
// shapes".

// NewCaffe returns the Caffe engine: per-image im2col + cuBLAS SGEMM,
// one persistent column buffer, full gradient buffers, and a pinned
// prefetch thread that hides input transfers (its Figure 7 share is
// ~0%).
func NewCaffe() Engine {
	return &engine{
		name: "Caffe", strategy: conv.Unrolling, host: unrollHost,
		transfer: transferPolicy{pinned: true, async: true},
		model: unrollParams{
			gemmRegs: 86, gemmSmem: 8704, // Table II: 86 regs, 8.5 KB
			gemmBaseEff: 0.64, gemmRowSat: 128,
			gemmLoadTrans: 6.0, gemmL2Hit: 0.93,
			gemmBroadcast: 1.10, gemmConflict: 0.08,
			im2colName: "im2col_gpu_kernel", col2imName: "col2im_gpu_kernel",
			imLoadTrans: 4.0, imL2Hit: 0.88,
		}.model,
	}
}

// NewTorchCunn returns the Torch-cunn engine: the same im2col+SGEMM
// scheme as Caffe but with in-place gradient buffer reuse (the paper's
// lowest-memory unrolling implementation: it peaks ~1.7 GB lower than
// Caffe on the big sweeps) and synchronous pinned input transfers
// (1–15% of runtime in Figure 7).
func NewTorchCunn() Engine {
	return &engine{
		name: "Torch-cunn", strategy: conv.Unrolling, host: unrollHost,
		inPlaceGrads: true,
		transfer:     transferPolicy{pinned: true, async: false},
		model: unrollParams{
			gemmRegs: 84, gemmSmem: 8294, // Table II: 84 regs, 8.1 KB
			gemmBaseEff: 0.62, gemmRowSat: 128,
			gemmLoadTrans: 5.5, gemmL2Hit: 0.93,
			gemmBroadcast: 1.08, gemmConflict: 0.10,
			im2colName: "im2col_gpu_kernel", col2imName: "col2im_gpu_kernel",
			imLoadTrans: 4.0, imL2Hit: 0.88,
		}.model,
	}
}

// NewTheanoCorrMM returns the Theano-CorrMM engine: im2col+SGEMM with a
// larger row tile that only reaches peak utilisation at high filter
// counts (it overtakes cuDNN beyond ~160 filters, Figure 3c), the worst
// global-load coalescing of the group (11.6–15.8% in Figure 6), and
// synchronous pageable transfers — the source of its >60% transfer
// share on Conv2 in Figure 7.
func NewTheanoCorrMM() Engine {
	return &engine{
		name: "Theano-CorrMM", strategy: conv.Unrolling, host: unrollHost,
		transfer: transferPolicy{
			pinned: false, async: false,
			spillThreshold: 256 << 20, spillFactor: 2.5,
		},
		model: unrollParams{
			gemmRegs: 72, gemmSmem: 7168, // Table II: 72 regs, 7 KB
			gemmBaseEff: 1.08, gemmRowSat: 170, // 192-row tiles: slow ramp, high ceiling
			gemmLoadTrans: 7.5, gemmL2Hit: 0.97,
			gemmBroadcast: 1.05, gemmConflict: 0.12,
			im2colName: "corrMM_im2col_kernel", col2imName: "corrMM_col2im_kernel",
			imLoadTrans: 6.0, imL2Hit: 0.93,
		}.model,
	}
}
