// Traincifar: train cuda-convnet's classic CIFAR-10 architecture on a
// synthetic 3-channel dataset with the Autotuned engine — the planner
// picking the convolution implementation per layer shape by cost model
// — and report held-out accuracy plus the simulated per-layer cost.
//
// Usage:
//
//	traincifar [-steps 120] [-batch 32]
package main

import (
	"flag"
	"fmt"

	"gpucnn/internal/dataset"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/planner"
)

func main() {
	steps := flag.Int("steps", 120, "training steps")
	batch := flag.Int("batch", 32, "mini-batch size")
	flag.Parse()

	data := dataset.SyntheticColor(2048, 32, 0.1, 3)
	train, test := data.Split(1792)

	m := models.CIFARNet(planner.NewAutotuned(planner.Options{}))
	dev := gpusim.New(gpusim.TeslaK40c())
	ctx := nn.NewContext(dev, true)
	opt := nn.NewSGD(0.02, 0.9, 1e-4)

	fmt.Printf("training CIFARNet on %d synthetic colour images (%d held out), Autotuned engine, batch %d\n\n",
		train.Len(), test.Len(), *batch)
	for step := 1; step <= *steps; step++ {
		x, labels := train.Batch((step-1)*(*batch), *batch)
		loss, acc := m.Net.TrainStep(ctx, x, labels)
		opt.Step(m.Net.Params())
		if step%20 == 0 || step == 1 {
			fmt.Printf("step %3d  loss %.4f  batch accuracy %5.1f%%  simulated GPU time %v\n",
				step, loss, acc*100, dev.Elapsed().Round(1000))
		}
	}

	loss, acc := models.Evaluate(m, test.Images, test.Labels, *batch)
	fmt.Printf("\nheld-out: loss %.4f, accuracy %.1f%%\n", loss, acc*100)
	fmt.Printf("\nsimulated layer-time breakdown:\n%s", nn.BreakdownReport(ctx.TimeByKind))
	m.Net.Release()
}
