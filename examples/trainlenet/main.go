// Trainlenet: train the paper's Figure 1 network (LeNet-5) end to end
// on a synthetic MNIST-geometry digit dataset. Every convolution runs
// through a real engine (numerically exact), the attached device model
// tracks what the same training would cost on a Tesla K40c, and the
// trained weights are checkpointed and restored to verify the
// round trip.
//
// Usage:
//
//	trainlenet [-steps 80] [-batch 32] [-engine cuDNN] [-checkpoint lenet.ckpt]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"gpucnn/internal/dataset"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
)

func evaluate(m *models.Model, d *dataset.Dataset) (loss, acc float64) {
	ctx := nn.NewContext(nil, false)
	x, labels := d.Batch(0, d.Len())
	m.Net.Forward(ctx, nn.NewValue(x))
	return m.Net.Loss().Loss(labels)
}

func main() {
	steps := flag.Int("steps", 80, "training steps")
	batch := flag.Int("batch", 32, "mini-batch size")
	engineName := flag.String("engine", "cuDNN", "convolution engine")
	ckpt := flag.String("checkpoint", "", "optional path to write the trained checkpoint")
	flag.Parse()

	engine, err := impls.ByName(*engineName)
	if err != nil {
		log.Fatal(err)
	}

	data := dataset.Synthetic(2048, 28, 0.15, 1)
	train, test := data.Split(1792)
	fmt.Printf("training LeNet-5 on %d synthetic digits (%d held out), engine %s, batch %d\n\n",
		train.Len(), test.Len(), engine.Name(), *batch)

	m := models.LeNet5(engine)
	dev := gpusim.New(gpusim.TeslaK40c())
	ctx := nn.NewContext(dev, true)
	opt := nn.NewSGD(0.03, 0.9, 1e-4)

	for step := 1; step <= *steps; step++ {
		x, labels := train.Batch((step-1)*(*batch), *batch)
		loss, acc := m.Net.TrainStep(ctx, x, labels)
		opt.Step(m.Net.Params())
		if step%10 == 0 || step == 1 {
			fmt.Printf("step %3d  loss %.4f  batch accuracy %5.1f%%  simulated GPU time %v\n",
				step, loss, acc*100, dev.Elapsed().Round(1000))
		}
	}

	loss, acc := evaluate(m, test)
	fmt.Printf("\nheld-out: loss %.4f, accuracy %.1f%%\n", loss, acc*100)

	// Checkpoint round trip: save, restore into a fresh network, verify
	// identical held-out behaviour.
	var buf bytes.Buffer
	if err := m.Net.Save(&buf); err != nil {
		log.Fatal(err)
	}
	restored := models.LeNet5(engine)
	restored.Net.Forward(nn.NewContext(nil, false), nn.ShapeOnly(restored.InputShape(1)...)) // declare params
	if err := restored.Net.Load(bytes.NewReader(buf.Bytes())); err != nil {
		log.Fatal(err)
	}
	rLoss, rAcc := evaluate(restored, test)
	fmt.Printf("restored checkpoint: loss %.4f, accuracy %.1f%% (%d bytes)\n", rLoss, rAcc*100, buf.Len())

	if *ckpt != "" {
		if err := os.WriteFile(*ckpt, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *ckpt)
	}

	fmt.Printf("\nsimulated layer-time breakdown:\n%s", nn.BreakdownReport(ctx.TimeByKind))
	m.Net.Release()
}
