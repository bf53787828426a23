package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
)

// NewTheanoLegacy returns the Theano-legacy engine: the
// direct-convolution implementation the paper's Section II.B names as
// the other representative of the direct strategy (next to
// cuda-convnet2) but does not include in the seven-way evaluation — so
// it lives in Extensions(). It is the naive GPU port of the nested
// convolution loops: one thread per output element, no register
// blocking, heavy uncoalesced global traffic — the baseline every
// optimised implementation is implicitly compared against. The naive
// loops accept any shape and need no workspace, and unlike
// cuda-convnet2 keep full gradient buffers. Theano stages batches
// synchronously through pageable memory.
func NewTheanoLegacy() Engine {
	return &engine{
		name: "Theano-legacy", strategy: conv.Direct, host: directHost,
		transfer: transferPolicy{pinned: false, async: false},
		model: func(cfg conv.Config) launchModel {
			return &kernelModel{
				spec:  theanoLegacySpec(cfg),
				names: [3]string{"conv_patch_stack", "conv_grad_input", "conv_grad_weight"},
			}
		},
	}
}

// theanoLegacySpec is the profile every Theano-legacy pass kernel
// shares.
func theanoLegacySpec(cfg conv.Config) gpusim.KernelSpec {
	o := cfg.Out()
	// One thread per output pixel; every thread re-reads its receptive
	// field from global memory — the naive pattern with k²·c reloads.
	flops := cfg.ForwardFLOPs()
	reload := float64(cfg.Batch*cfg.Filters*o*o) * float64(cfg.Channels*cfg.Kernel*cfg.Kernel) * 4
	return gpusim.KernelSpec{
		Grid:             gpusim.Dim3{X: (cfg.Batch*cfg.Filters*o*o + 255) / 256},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    40,
		FLOPs:            flops,
		GlobalLoadBytes:  reload,
		GlobalStoreBytes: float64(cfg.OutputBytes()),
		LoadTransPerReq:  4.0,
		StoreTransPerReq: 1.2,
		L2HitFrac:        0.92, // the k² reloads mostly hit cache, but not free
		ActiveThreadFrac: 0.97,
		ILP:              1,
		EfficiencyScale:  0.5,
	}
}
