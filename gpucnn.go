// Package gpucnn is a library-level reproduction of "Performance
// Analysis of GPU-based Convolutional Neural Networks" (Li, Zhang,
// Huang, Wang, Zheng — ICPP 2016). It provides:
//
//   - The seven convolution implementations the paper compares (Caffe,
//     cuDNN v3, Torch-cunn, Theano-CorrMM, Theano-fft, cuda-convnet2,
//     fbfft), each computing numerically correct results on the CPU
//     (goroutine-parallel) while a performance model of the paper's
//     Tesla K40c simulates runtime, device memory and nvprof metrics.
//   - The three underlying convolution strategies (direct,
//     unrolling/im2col+GEMM, FFT) with forward and backward passes.
//   - A small CNN framework and the four profiled models (AlexNet,
//     VGG-19, GoogLeNet, OverFeat) plus LeNet-5.
//   - Benchmark drivers regenerating every figure and table of the
//     paper's evaluation.
//
// This file is the public facade: it re-exports the stable surface of
// the internal packages, so downstream users import only
// "gpucnn". See the examples/ directory for runnable entry points and
// DESIGN.md for the system inventory.
package gpucnn

import (
	"gpucnn/internal/bench"
	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/planner"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

// Config is the paper's convolution-layer 5-tuple (b, i, f, k, s) plus
// input channels and padding.
type Config = conv.Config

// Strategy labels the three convolution families.
type Strategy = conv.Strategy

// The three convolution strategies.
const (
	Direct    = conv.Direct
	Unrolling = conv.Unrolling
	FFT       = conv.FFT
)

// Engine is one of the seven convolution implementations.
type Engine = impls.Engine

// Plan is an engine instantiated on a device for one configuration.
type Plan = impls.Plan

// Engine constructors, one per implementation in the paper.
var (
	NewCaffe        = impls.NewCaffe
	NewCuDNN        = impls.NewCuDNN
	NewTorchCunn    = impls.NewTorchCunn
	NewTheanoCorrMM = impls.NewTheanoCorrMM
	NewTheanoFFT    = impls.NewTheanoFFT
	NewCudaConvnet2 = impls.NewCudaConvnet2
	NewFbfft        = impls.NewFbfft
	Engines         = impls.All
	EngineByName    = impls.ByName
	EngineNames     = impls.Names

	// Extensions beyond the paper's seven implementations, among them
	// the F(2×2,3×3) Winograd engine and Autotuned.
	NewWinograd      = impls.NewWinograd
	EngineExtensions = impls.Extensions
)

// NewAutotuned returns the plan-time autotuner as an engine: per layer
// configuration it scores every candidate implementation through the
// cost model and delegates to the predicted winner, caching each
// decision process-wide.
func NewAutotuned() Engine { return planner.NewAutotuned(planner.Options{}) }

// Device is the simulated GPU.
type Device = gpusim.Device

// DeviceSpec describes a GPU's architectural parameters.
type DeviceSpec = gpusim.DeviceSpec

// KernelSpec characterises one simulated kernel launch.
type KernelSpec = gpusim.KernelSpec

// Metrics are the nvprof-style metrics of a launch or profile.
type Metrics = gpusim.Metrics

// OOMError is returned when an allocation exceeds device memory.
type OOMError = gpusim.OOMError

// NewDevice builds a simulated device from a spec.
func NewDevice(spec DeviceSpec) *Device { return gpusim.New(spec) }

// TeslaK40c returns the spec of the paper's GPU.
func TeslaK40c() DeviceSpec { return gpusim.TeslaK40c() }

// Tensor is a dense float32 tensor in NCHW layout.
type Tensor = tensor.Tensor

// Shape is a tensor shape.
type Shape = tensor.Shape

// NewTensor allocates a zero tensor.
func NewTensor(dims ...int) *Tensor { return tensor.New(dims...) }

// RNG is the deterministic generator used for synthetic data.
type RNG = tensor.RNG

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// Cell is one (implementation, configuration) measurement.
type Cell = bench.Cell

// Measure runs one engine on one configuration on a fresh simulated
// K40c, averaging over bench.Iterations training iterations.
func Measure(e Engine, cfg Config) Cell { return bench.Measure(e, cfg) }

// BaseConfig returns the paper's base configuration (64,128,64,11,1).
func BaseConfig() Config { return workload.Base() }

// TableI returns the paper's five benchmarking configurations.
func TableI() []workload.NamedConfig { return workload.TableI() }

// Network framework re-exports.
type (
	// Net is a sequential network.
	Net = nn.Net
	// Layer is one network stage.
	Layer = nn.Layer
	// Context carries per-run state for network execution.
	Context = nn.Context
	// SGD is the stochastic-gradient-descent optimiser.
	SGD = nn.SGD
	// Model couples a network with its canonical input geometry.
	Model = models.Model
)

// Model builders for the paper's profiled networks.
var (
	AlexNet   = models.AlexNet
	VGG19     = models.VGG19
	GoogLeNet = models.GoogLeNet
	OverFeat  = models.OverFeat
	LeNet5    = models.LeNet5
)

// NewContext builds a network execution context; dev may be nil for
// pure-arithmetic runs.
func NewContext(dev *Device, train bool) *Context { return nn.NewContext(dev, train) }

// NewSGD builds a stochastic-gradient-descent optimiser with momentum
// and weight decay.
func NewSGD(lr, momentum, decay float32) *SGD { return nn.NewSGD(lr, momentum, decay) }
