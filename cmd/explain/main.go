// Command explain is the paper's practitioner guidance as an
// interactive tool: for one convolution configuration it prints which
// engine the plan-time autotuner selects and why, then profiles every
// implementation and decomposes each one's dominant kernel — occupancy
// limiter, compute-vs-memory bound, sustained throughput, and the
// advisory notes matching the paper's Section V summaries.
//
// With -plan it instead runs the plan-time autotuner (internal/planner)
// and prints the per-layer decision table: for each Table I layer plus
// the flag-specified configuration, every candidate engine's predicted
// cost from the gpusim cost model, the chosen engine, and the margin
// over the runner-up. -probe K refines the top K candidates per layer
// with a one-shot measured probe (real numerics; slow at full shapes).
//
// Usage:
//
//	explain [-b 64] [-i 128] [-c 3] [-f 64] [-k 11] [-s 1]
//	explain -plan [-device k40c] [-probe 0] [flags as above]
package main

import (
	"flag"
	"fmt"
	"log"

	"gpucnn/internal/bench"
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/planner"
	"gpucnn/internal/workload"
)

func main() {
	b := flag.Int("b", 64, "mini-batch size")
	i := flag.Int("i", 128, "input extent")
	c := flag.Int("c", 3, "input channels")
	f := flag.Int("f", 64, "filter count")
	k := flag.Int("k", 11, "kernel extent")
	s := flag.Int("s", 1, "stride")
	plan := flag.Bool("plan", false, "print the plan-time autotuner decision table (Table I layers + this configuration)")
	probe := flag.Int("probe", 0, "with -plan: refine the top K candidates per layer with a one-shot measured probe")
	device := flag.String("device", "k40c", "device spec to plan for (k40c, titanx)")
	flag.Parse()

	cfg := conv.Config{Batch: *b, Input: *i, Channels: *c, Filters: *f, Kernel: *k, Stride: *s}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	spec, err := bench.SpecByName(*device)
	if err != nil {
		log.Fatal(err)
	}

	if *plan {
		printPlanTable(spec, cfg, *probe)
		return
	}

	d, err := planner.New(planner.Options{}).Decide(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configuration %v (channels %d)\n", cfg, cfg.Channels)
	fmt.Printf("recommended engine: %s — %s\n\n", d.Engine, d.Reason)
	for _, e := range impls.All() {
		if err := e.Supports(cfg); err != nil {
			fmt.Printf("%s: shape unsupported (%v)\n\n", e.Name(), err)
			continue
		}
		dev := gpusim.New(spec)
		plan, err := e.Plan(dev, cfg)
		if err != nil {
			fmt.Printf("%s: %v\n\n", e.Name(), err)
			continue
		}
		if err := plan.Iteration(); err != nil {
			fmt.Printf("%s: %v\n\n", e.Name(), err)
			plan.Release()
			continue
		}
		top := dev.Prof.TopKernels(1)
		fmt.Printf("%s — iteration %v, dominant kernel %s (%s-bound, intensity %.1f flops/B)\n",
			e.Name(), dev.Elapsed().Round(1000), top[0].Name,
			top[0].Bound(spec), top[0].ArithmeticIntensity())
		plan.Release()
	}
}

// printPlanTable runs the autotuner over the Table I layers plus the
// flag configuration and renders the decision table, then the full
// candidate scorecard for the flag configuration.
func printPlanTable(spec gpusim.DeviceSpec, cfg conv.Config, probe int) {
	p := planner.New(planner.Options{ProbeTopK: probe, Cache: planner.NewCache()})
	layers := workload.TableI()
	layers = append(layers, workload.NamedConfig{Name: "(flags)", Cfg: cfg.WithDefaults()})

	fmt.Printf("plan-time autotuner decisions — %s, training objective", spec.Name)
	if probe > 1 {
		fmt.Printf(", measured probe over top %d", probe)
	}
	fmt.Printf("\n\n%-8s %-20s %-15s %-10s %12s %8s  %s\n",
		"layer", "config", "chosen", "strategy", "predicted", "margin", "reason")
	var last planner.Decision
	for _, nc := range layers {
		d, err := p.Decide(spec, nc.Cfg)
		if err != nil {
			fmt.Printf("%-8s %-20v %s\n", nc.Name, nc.Cfg, err)
			continue
		}
		fmt.Printf("%-8s %-20v %-15s %-10s %12v %+7.0f%%  %s\n",
			nc.Name, nc.Cfg, d.Engine, d.Strategy,
			d.Predicted.Round(1000), 100*d.Margin(), d.Reason)
		last = d
	}
	if last.Engine == "" {
		return
	}
	fmt.Printf("\ncandidates for %v:\n", last.Cfg)
	for _, c := range last.Candidates {
		if c.Skipped != "" {
			fmt.Printf("  %-16s %-10s %12s  skipped: %s\n", c.Engine, c.Strategy, "—", c.Skipped)
			continue
		}
		line := fmt.Sprintf("  %-16s %-10s %12v", c.Engine, c.Strategy, c.Predicted.Round(1000))
		if c.Measured > 0 {
			line += fmt.Sprintf("  measured %v", c.Measured.Round(1000))
		}
		fmt.Println(line)
	}
}
