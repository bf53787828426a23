// Modelzoo: profile the paper's four real-life models (AlexNet,
// GoogLeNet, VGG-19, OverFeat) on the simulated K40c under any
// convolution engine, printing each model's per-layer-kind breakdown —
// an interactive version of the paper's Figure 2 that lets you see how
// the engine choice moves the convolution share.
//
// Usage:
//
//	modelzoo [-engine Caffe] [-batch 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/tensor"
)

func main() {
	engineName := flag.String("engine", "Caffe", "convolution engine for all conv layers")
	batch := flag.Int("batch", 64, "mini-batch size")
	flag.Parse()

	engine, err := impls.ByName(*engineName)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("profiling one training iteration per model (engine %s, batch %d)\n\n",
		engine.Name(), *batch)
	for _, name := range models.Figure2 {
		m := models.Builders[name](engine)
		dev := gpusim.New(gpusim.TeslaK40c())
		ctx := nn.NewContext(dev, true)
		m.Net.SimulateIteration(ctx, tensor.Shape(m.InputShape(*batch)))
		fmt.Printf("%s — %.2fM params, ~%.1f GB activations, iteration %v, conv share %.1f%%\n",
			name, float64(m.Net.ParamCount())/1e6,
			float64(ctx.ActivationBytes)/(1<<30),
			dev.Elapsed().Round(time.Millisecond), nn.ConvShare(ctx.TimeByKind)*100)
		fmt.Print(nn.BreakdownReport(ctx.TimeByKind))
		fmt.Println()
		m.Net.Release()
	}
}
