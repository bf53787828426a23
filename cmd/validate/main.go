// Command validate cross-checks the numerical correctness of every
// implementation on a configuration: all engines compute the same
// forward, backward-data and backward-filter results on real data, and
// the maximum relative deviation from the direct-convolution reference
// is reported. This is the ground truth under the performance study —
// the comparison is only meaningful because all seven implementations
// compute the same function.
//
// Usage:
//
//	validate [-b 32] [-i 24] [-c 3] [-f 16] [-k 5] [-s 1] [-pad 0]
package main

import (
	"flag"
	"fmt"
	"os"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

func main() {
	b := flag.Int("b", 32, "mini-batch size")
	i := flag.Int("i", 24, "input extent")
	c := flag.Int("c", 3, "input channels")
	f := flag.Int("f", 16, "filter count")
	k := flag.Int("k", 5, "kernel extent")
	s := flag.Int("s", 1, "stride")
	pad := flag.Int("pad", 0, "padding")
	flag.Parse()

	cfg := conv.Config{Batch: *b, Input: *i, Channels: *c, Filters: *f, Kernel: *k, Stride: *s, Pad: *pad}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "invalid configuration:", err)
		os.Exit(2)
	}

	x, w := workload.SyntheticTensors(cfg, 1)
	dy := tensor.New(cfg.OutputShape()...)
	dy.FillUniform(tensor.NewRNG(2), -1, 1)

	refY := tensor.New(cfg.OutputShape()...)
	conv.DirectForward(cfg, x, w, refY)
	refDx := tensor.New(cfg.InputShape()...)
	conv.DirectBackwardData(cfg, dy, w, refDx)
	refDw := tensor.New(cfg.FilterShape()...)
	conv.DirectBackwardFilter(cfg, x, dy, refDw)

	fmt.Printf("validating %v (channels %d, pad %d) against direct convolution\n\n", cfg, cfg.Channels, cfg.Pad)
	fmt.Printf("%-16s %14s %14s %14s\n", "Implementation", "fwd rel.err", "bwd-data", "bwd-filter")
	failures := 0
	for _, e := range append(impls.All(), impls.Extensions()...) {
		if err := e.Supports(cfg); err != nil {
			fmt.Printf("%-16s %44s\n", e.Name(), "shape unsupported")
			continue
		}
		dev := gpusim.New(gpusim.TeslaK40c())
		plan, err := e.Plan(dev, cfg)
		if err != nil {
			fmt.Printf("%-16s plan failed: %v  <-- FAIL\n", e.Name(), err)
			failures++
			continue
		}
		y := tensor.New(cfg.OutputShape()...)
		dx := tensor.New(cfg.InputShape()...)
		dw := tensor.New(cfg.FilterShape()...)
		err = plan.Forward(x, w, y)
		if err == nil {
			err = plan.BackwardData(dy, w, dx)
		}
		if err == nil {
			err = plan.BackwardFilter(x, dy, dw)
		}
		plan.Release()
		if err != nil {
			fmt.Printf("%-16s failed: %v  <-- FAIL\n", e.Name(), err)
			failures++
			continue
		}
		ef, ed, ew := tensor.RelDiff(refY, y), tensor.RelDiff(refDx, dx), tensor.RelDiff(refDw, dw)
		marker := ""
		// Written so a NaN deviation fails too.
		if !(ef <= 1e-3 && ed <= 1e-3 && ew <= 1e-3) {
			marker = "  <-- FAIL"
			failures++
		}
		fmt.Printf("%-16s %14.2e %14.2e %14.2e%s\n", e.Name(), ef, ed, ew, marker)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "\n%d implementation(s) failed or deviate beyond 1e-3\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall implementations agree with the direct reference")
}
