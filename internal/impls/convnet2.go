package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// directHost computes every pass by direct convolution, which needs no
// scratch; Theano-legacy shares it.
var directHost = hostStrategy{
	func(_ *workspace.Arena, cfg conv.Config, x, w, y *tensor.Tensor) {
		conv.DirectForward(cfg, x, w, y)
	},
	func(_ *workspace.Arena, cfg conv.Config, dy, w, dx *tensor.Tensor) {
		conv.DirectBackwardData(cfg, dy, w, dx)
	},
	func(_ *workspace.Arena, cfg conv.Config, x, dy, dw *tensor.Tensor) {
		conv.DirectBackwardFilter(cfg, x, dy, dw)
	},
}

// NewCudaConvnet2 returns the cuda-convnet2 engine: direct convolution
// in CHWN layout with aggressive register blocking. Its kernels use 116
// registers per thread and 16 KB of shared memory per block (Table II),
// which caps theoretical occupancy at ~17 resident warps per SM — the
// paper measures 14–22% achieved occupancy — and the kernels compensate
// with high instruction-level parallelism. The batch dimension is the
// innermost vector axis, so throughput peaks when the mini-batch is a
// multiple of the 128-image register tile and degrades off-multiple.
//
// Direct convolution needs no unrolling workspace, and cuda-convnet2
// computes both gradients in place (the output gradient overwrites the
// activations, the input gradient the inputs) — the paper's most
// memory-frugal implementation. The cuda-convnet2.torch wrapper stages
// inputs synchronously through pinned memory (1–15% of runtime in
// Figure 7).
func NewCudaConvnet2() Engine {
	return &engine{
		name: "cuda-convnet2", strategy: conv.Direct, limits: convnet2Limits, host: directHost,
		inPlaceGrads: true, reuseInputGrad: true,
		transfer: transferPolicy{pinned: true, async: false},
		model: func(cfg conv.Config) launchModel {
			return &kernelModel{
				spec:  convnet2Spec(cfg),
				names: [3]string{"filterActs_YxX_color", "img_acts_color", "conv_weight_acts_c_preload"},
			}
		},
	}
}

// convnet2Limits enforces the paper's reported shape limitations:
// square inputs and kernels (our Config is always square), mini-batch a
// multiple of 32, and filter count a multiple of 16.
func convnet2Limits(name string, cfg conv.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Batch%32 != 0 {
		return errUnsupported(name, cfg, "mini-batch size must be a multiple of 32")
	}
	if cfg.Filters%16 != 0 {
		return errUnsupported(name, cfg, "filter number must be a multiple of 16")
	}
	return nil
}

// convnet2BatchEff returns the efficiency of the 128-wide register tile
// for this mini-batch: full at multiples of 128, degraded on the
// narrower fallback paths.
func convnet2BatchEff(batch int) float64 {
	switch {
	case batch%128 == 0:
		return 0.74
	case batch%64 == 0:
		return 0.60
	default: // multiples of 32
		return 0.42
	}
}

// convnet2Spec is the profile every cuda-convnet2 pass kernel shares.
func convnet2Spec(cfg conv.Config) gpusim.KernelSpec {
	flops := cfg.ForwardFLOPs() // each pass moves the same madd volume
	tensorBytes := float64(cfg.InputBytes() + cfg.OutputBytes() + cfg.FilterBytes())
	o := cfg.Out()
	return gpusim.KernelSpec{
		Grid:           gpusim.Dim3{X: (cfg.Filters / 16) * o * ((cfg.Batch + 127) / 128)},
		Block:          gpusim.Dim3{X: 256},
		RegsPerThread:  116,       // Table II
		SharedPerBlock: 16 * 1024, // Table II
		FLOPs:          flops,
		// CHWN layout makes batch-contiguous accesses perfectly
		// coalesced; the filter taps stream through shared memory.
		GlobalLoadBytes:  tensorBytes * 2.2,
		GlobalStoreBytes: tensorBytes * 0.4,
		LoadTransPerReq:  1.6,
		StoreTransPerReq: 1.3,
		L2HitFrac:        0.6,
		UsesShared:       true,
		SharedBroadcast:  1.05,
		BankConflictRate: 0.15,
		ActiveThreadFrac: 0.98,
		ILP:              6, // register blocking compensates the 25% occupancy cap
		EfficiencyScale:  convnet2BatchEff(cfg.Batch),
		OccupancyDerate:  0.75, // paper: 14-22% achieved vs 25% theoretical
	}
}
