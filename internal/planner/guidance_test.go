package planner

import (
	"fmt"
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

// paperPlanner scores only the paper's seven implementations, the pool
// the paper's practitioner guidance chooses from.
func paperPlanner() *Planner {
	return New(Options{Candidates: impls.All(), Cache: NewCache()})
}

// paperRule is the paper's Section IV/V guidance for a K40c with room
// to spare, as a rule of thumb: FFT cannot run strides above 1, so
// strided layers go to cuDNN, or to Theano-CorrMM at very large filter
// counts where its bigger row tiles pull ahead (Figure 3c); "fbfft is
// the fastest implementation to train a CNN model with large kernels.
// For small kernels, cuDNN would be a good choice."
func paperRule(cfg conv.Config) string {
	switch {
	case cfg.Stride > 1 && cfg.Filters > 256:
		return "Theano-CorrMM"
	case cfg.Stride > 1:
		return "cuDNN"
	case cfg.Kernel >= 7:
		return "fbfft"
	}
	return "cuDNN"
}

// TestPaperGuidanceMemoryLimited: "cuda-convnet2 is well suitable for
// cases when the memory is limited". On a 600 MB K40c the FFT engines'
// frequency grids no longer fit at the base configuration, so the
// planner must not pick either of them.
func TestPaperGuidanceMemoryLimited(t *testing.T) {
	small := gpusim.TeslaK40c()
	small.Name = "k40c-600MB"
	small.GlobalMemBytes = 600 << 20
	d, err := paperPlanner().Decide(small, workload.Base())
	if err != nil {
		t.Fatal(err)
	}
	if d.Engine == "fbfft" || d.Engine == "Theano-fft" {
		t.Errorf("600 MB device: picked %s (%s), want an engine that fits", d.Engine, d.Reason)
	}
}

// TestPlannerAgreesWithPaperRule keeps the paper's guidance as an
// oracle on the planner: on the paper's seven engines and the K40c,
// across every Figure 3 cell, the Table I layers and two off-sweep
// shapes, the planner picks what paperRule picks, never an FFT engine
// on a strided layer, except on the cells where the cost model
// predicts the rule's pick slower than its own.
func TestPlannerAgreesWithPaperRule(t *testing.T) {
	beatsRule := map[string]bool{"input=80": true, "kernel=3": true, "kernel=5": true, "Conv2": true}
	p := paperPlanner()
	check := func(label string, cfg conv.Config) {
		d := decide(t, p, cfg)
		if cfg.Stride > 1 && d.Strategy == conv.FFT {
			t.Errorf("%s: picked FFT engine %s on a strided layer", label, d.Engine)
		}
		rule := paperRule(cfg)
		if !beatsRule[label] {
			if d.Engine != rule {
				t.Errorf("%s %v: picked %s (%s), the paper's rule picks %s", label, cfg, d.Engine, d.Reason, rule)
			}
			return
		}
		for _, c := range d.Candidates {
			if c.Engine == rule && c.Skipped == "" && c.Predicted <= d.Predicted {
				t.Errorf("%s %v: the rule's %s (%v) is no slower than the planner's %s (%v)",
					label, cfg, rule, c.Predicted, d.Engine, d.Predicted)
			}
		}
	}
	for _, sweep := range workload.SweepNames() {
		for _, cfg := range workload.Sweeps()[sweep] {
			check(fmt.Sprintf("%s=%d", sweep, workload.SweptValue(sweep, cfg)), cfg)
		}
	}
	for _, nc := range workload.TableI() {
		check(nc.Name, nc.Cfg)
	}
	// Theano-CorrMM's strided pick and a batch size off the sweep grid.
	check("stride=2,filters=512", conv.Config{Batch: 64, Input: 128, Channels: 3, Filters: 512, Kernel: 11, Stride: 2})
	check("batch=50", conv.Config{Batch: 50, Input: 128, Channels: 3, Filters: 64, Kernel: 11, Stride: 1})
}
