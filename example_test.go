package gpucnn_test

import (
	"fmt"

	"gpucnn"
)

// Measure one implementation on one layer shape and inspect the
// simulated results.
func ExampleMeasure() {
	cfg := gpucnn.Config{Batch: 64, Input: 128, Channels: 3, Filters: 64, Kernel: 11, Stride: 1}
	cell := gpucnn.Measure(gpucnn.NewFbfft(), cfg)
	fmt.Println("ok:", cell.Ok())
	fmt.Println("config:", cell.Cfg)
	// Output:
	// ok: true
	// config: (64,128,64,11,1)
}

// Shape limitations surface as non-Ok cells, the way the paper plots
// missing points.
func ExampleEngine_supports() {
	strided := gpucnn.Config{Batch: 64, Input: 64, Channels: 3, Filters: 64, Kernel: 5, Stride: 2}
	for _, e := range gpucnn.Engines() {
		if e.Strategy() == gpucnn.FFT {
			fmt.Println(e.Name(), "supports stride 2:", e.Supports(strided) == nil)
		}
	}
	// Output:
	// Theano-fft supports stride 2: false
	// fbfft supports stride 2: false
}

// Run a real convolution while the device model profiles it.
func ExampleNewDevice() {
	cfg := gpucnn.Config{Batch: 4, Input: 12, Channels: 2, Filters: 4, Kernel: 3, Stride: 1}
	dev := gpucnn.NewDevice(gpucnn.TeslaK40c())
	plan, err := gpucnn.NewCuDNN().Plan(dev, cfg)
	if err != nil {
		panic(err)
	}
	defer plan.Release()

	r := gpucnn.NewRNG(1)
	x := gpucnn.NewTensor(cfg.InputShape()...)
	x.FillUniform(r, -1, 1)
	w := gpucnn.NewTensor(cfg.FilterShape()...)
	w.FillUniform(r, -1, 1)
	y := gpucnn.NewTensor(cfg.OutputShape()...)
	if err := plan.Forward(x, w, y); err != nil {
		panic(err)
	}
	fmt.Println("output shape:", y.Shape())
	fmt.Println("clock advanced:", dev.Elapsed() > 0)
	// Output:
	// output shape: [4 4 10 10]
	// clock advanced: true
}

// Autotuned picks the implementation per layer shape by cost model.
func ExampleNewAutotuned() {
	auto := gpucnn.NewAutotuned()
	large := gpucnn.BaseConfig() // kernel 11
	small := gpucnn.BaseConfig()
	small.Kernel = 3
	fmt.Println("large kernels supported:", auto.Supports(large) == nil)
	fmt.Println("small kernels supported:", auto.Supports(small) == nil)
	// Output:
	// large kernels supported: true
	// small kernels supported: true
}
