package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
)

// NewWinograd returns the F(2×2,3×3) Winograd engine, an *extension*
// beyond the paper's seven implementations: the minimal-filtering
// convolution that cuDNN shipped after the paper's study — exactly the
// "opportunity for further optimization" its conclusion calls for. It
// is exposed through Extensions(), not All(), so the paper's
// comparisons stay faithful. It runs 3×3 kernels with stride 1 only.
//
// The cost model mirrors cuDNN's fused style (tiled compute from
// shared memory) but with the 2.25× multiply reduction of the Winograd
// transform, paid for by transform overhead on the input/output tiles.
func NewWinograd() Engine {
	return &engine{
		name: "cuDNN-Winograd", strategy: conv.Direct, limits: winogradLimits, host: winogradHost,
		transfer: transferPolicy{pinned: true, async: true},
		model: func(cfg conv.Config) launchModel {
			return &kernelModel{
				spec:  winogradSpec(cfg),
				names: [3]string{"winograd_fwd_3x3_s1", "winograd_bwd_data_3x3_s1", "winograd_bwd_filter_3x3_s1"},
				// Transformed-filter workspace: 16 floats per (f, c) plane.
				tag: "winograd-filters", bytes: int64(cfg.Filters*cfg.Channels) * 16 * 4,
			}
		},
	}
}

// winogradHost: backward-data is itself a 3×3 stride-1 correlation, so
// the Winograd transform applies to it directly; backward-filter falls
// back to unrolling.
var winogradHost = hostStrategy{conv.WinogradForward, conv.WinogradBackwardData, conv.UnrollBackwardFilter}

func winogradLimits(name string, cfg conv.Config) error {
	if err := conv.WinogradSupported(cfg.WithDefaults()); err != nil {
		return errUnsupported(name, cfg, err.Error())
	}
	return nil
}

// winogradSpec is the profile every Winograd pass kernel shares.
func winogradSpec(cfg conv.Config) gpusim.KernelSpec {
	// Effective multiply-add volume after the 2.25× reduction, plus
	// ~25% transform overhead (adds, not multiplies).
	flops := 2 * conv.WinogradMultiplies(cfg) * 1.25
	tensorBytes := float64(cfg.InputBytes() + cfg.OutputBytes() + cfg.FilterBytes())
	o := cfg.Out()
	return gpusim.KernelSpec{
		Grid:             gpusim.Dim3{X: cfg.Batch * ((o + 1) / 2) * ((o + 1) / 2) / 4},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    96,
		SharedPerBlock:   12 * 1024,
		FLOPs:            flops,
		GlobalLoadBytes:  tensorBytes * 1.2,
		GlobalStoreBytes: tensorBytes * 0.3,
		LoadTransPerReq:  1.5,
		StoreTransPerReq: 1.2,
		L2HitFrac:        0.6,
		UsesShared:       true,
		SharedBroadcast:  1.2,
		BankConflictRate: 0.05,
		ActiveThreadFrac: 0.99,
		ILP:              4,
		EfficiencyScale:  0.85,
	}
}
