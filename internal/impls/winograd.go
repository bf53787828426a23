package impls

import (
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// winogradEngine is an *extension* beyond the paper's seven
// implementations: the F(2×2, 3×3) minimal-filtering convolution that
// cuDNN shipped after the paper's study — exactly the "opportunity for
// further optimization" its conclusion calls for. It is exposed through
// Extensions(), not All(), so the paper's comparisons stay faithful.
//
// The cost model mirrors cuDNN's fused style (tiled compute from
// shared memory) but with the 2.25× multiply reduction of the Winograd
// transform, paid for by transform overhead on the input/output tiles.
type winogradEngine struct{}

// NewWinograd returns the F(2×2,3×3) Winograd engine.
func NewWinograd() Engine { return &winogradEngine{} }

func (e *winogradEngine) Name() string            { return "cuDNN-Winograd" }
func (e *winogradEngine) Strategy() conv.Strategy { return conv.Direct }

// Supports: 3×3 kernels with stride 1 only.
func (e *winogradEngine) Supports(cfg conv.Config) error {
	if err := conv.WinogradSupported(cfg.WithDefaults()); err != nil {
		return errUnsupported(e.Name(), cfg, err.Error())
	}
	return nil
}

func (e *winogradEngine) Plan(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.plan(dev, cfg, false)
}

// PlanShared plans with framework-owned activations.
func (e *winogradEngine) PlanShared(dev *gpusim.Device, cfg conv.Config) (Plan, error) {
	return e.plan(dev, cfg, true)
}

func (e *winogradEngine) plan(dev *gpusim.Device, cfg conv.Config, shared bool) (Plan, error) {
	cfg = cfg.WithDefaults()
	if err := e.Supports(cfg); err != nil {
		return nil, err
	}
	bs := &bufSet{dev: dev}
	if err := bs.allocTrainingSet(cfg, false, false, shared); err != nil {
		bs.release()
		return nil, err
	}
	// Transformed-filter workspace: 16 floats per (f, c) plane.
	if err := bs.alloc(int64(cfg.Filters*cfg.Channels)*16*4, "winograd-filters"); err != nil {
		bs.release()
		return nil, err
	}
	return &winogradPlan{dev: dev, cfg: cfg, bufs: bs}, nil
}

type winogradPlan struct {
	dev  *gpusim.Device
	cfg  conv.Config
	bufs *bufSet
	ws   workspace.Arena // host scratch of the plan's passes
}

func (p *winogradPlan) Config() conv.Config { return p.cfg }

// Release frees the plan's device memory and drops its host arena.
func (p *winogradPlan) Release() {
	p.bufs.release()
	p.ws = workspace.Arena{}
}

func (p *winogradPlan) spec(name string) gpusim.KernelSpec {
	cfg := p.cfg
	// Effective multiply-add volume after the 2.25× reduction, plus
	// ~25% transform overhead (adds, not multiplies).
	flops := 2 * conv.WinogradMultiplies(cfg) * 1.25
	tensorBytes := float64(cfg.InputBytes() + cfg.OutputBytes() + cfg.FilterBytes())
	o := cfg.Out()
	return gpusim.KernelSpec{
		Name:             name,
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

func (p *winogradPlan) Forward(x, w, y *tensor.Tensor) error {
	defer beginPhase(p.dev, "forward")()
	if _, err := p.dev.Launch(p.spec("winograd_fwd_3x3_s1")); err != nil {
		return err
	}
	if x != nil {
		conv.WinogradForward(&p.ws, p.cfg, x, w, y)
	}
	return nil
}

func (p *winogradPlan) BackwardData(dy, w, dx *tensor.Tensor) error {
	defer beginPhase(p.dev, "backward_data")()
	if _, err := p.dev.Launch(p.spec("winograd_bwd_data_3x3_s1")); err != nil {
		return err
	}
	if dy != nil {
		// Backward-data is itself a 3×3 stride-1 correlation, so the
		// Winograd transform applies to it directly.
		conv.WinogradBackwardData(&p.ws, p.cfg, dy, w, dx)
	}
	return nil
}

func (p *winogradPlan) BackwardFilter(x, dy, dw *tensor.Tensor) error {
	defer beginPhase(p.dev, "backward_filter")()
	if _, err := p.dev.Launch(p.spec("winograd_bwd_filter_3x3_s1")); err != nil {
		return err
	}
	if x != nil {
		conv.UnrollBackwardFilter(&p.ws, p.cfg, x, dy, dw)
	}
	return nil
}

func (p *winogradPlan) Inference() error {
	transferPolicy{pinned: true, async: true}.doTransfer(p.dev, p.cfg)
	return p.Forward(nil, nil, nil)
}

func (p *winogradPlan) Iteration() error {
	transferPolicy{pinned: true, async: true}.doTransfer(p.dev, p.cfg)
	if err := p.Forward(nil, nil, nil); err != nil {
		return err
	}
	if err := p.BackwardData(nil, nil, nil); err != nil {
		return err
	}
	return p.BackwardFilter(nil, nil, nil)
}
