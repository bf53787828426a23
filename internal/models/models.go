// Package models builds the CNN architectures the paper profiles in
// Figure 2 — AlexNet, VGGNet (VGG-19), GoogLeNet and OverFeat — plus
// LeNet-5, the introductory example of the paper's Figure 1. Parameter
// counts reproduce the figures quoted in the paper's introduction
// (AlexNet > 60 M, VGGNet > 144 M, GoogLeNet ≈ 6.8 M).
package models

import (
	"fmt"
	"sort"
	"strings"

	"gpucnn/internal/impls"
	"gpucnn/internal/nn"
	"gpucnn/internal/tensor"
)

// Model couples a network with its canonical input geometry.
type Model struct {
	Net        *nn.Net
	InputSize  int // square spatial extent
	InputChans int
	Classes    int
}

// InputShape returns the NCHW input shape for a batch size.
func (m *Model) InputShape(batch int) []int {
	return []int{batch, m.InputChans, m.InputSize, m.InputSize}
}

// conv is a helper building Conv+ReLU with a shared engine.
func convRelu(name string, eng impls.Engine, filters, kernel, stride, pad int) []nn.Layer {
	return []nn.Layer{
		nn.NewConv(name, eng, filters, kernel, stride, pad),
		nn.NewReLU(name + ".relu"),
	}
}

// AlexNet builds the ILSVRC-2012 winner: 5 convolutional + 3
// fully-connected layers, >60 M parameters (the paper's Section I).
// Grouped convolutions are modelled ungrouped, as all the surveyed
// frameworks' reference re-implementations do.
func AlexNet(eng impls.Engine) *Model {
	net := nn.NewNet("AlexNet")
	add := func(ls ...nn.Layer) {
		for _, l := range ls {
			net.Add(l)
		}
	}
	add(convRelu("conv1", eng, 96, 11, 4, 0)...) // 227 -> 55
	add(nn.NewLRN("norm1", 5, 0, 0, 0))
	add(nn.NewMaxPool("pool1", 3, 2, 0)) // 55 -> 27
	add(convRelu("conv2", eng, 256, 5, 1, 2)...)
	add(nn.NewLRN("norm2", 5, 0, 0, 0))
	add(nn.NewMaxPool("pool2", 3, 2, 0)) // 27 -> 13
	add(convRelu("conv3", eng, 384, 3, 1, 1)...)
	add(convRelu("conv4", eng, 384, 3, 1, 1)...)
	add(convRelu("conv5", eng, 256, 3, 1, 1)...)
	add(nn.NewMaxPool("pool5", 3, 2, 0)) // 13 -> 6
	add(nn.NewFC("fc6", 4096), nn.NewReLU("fc6.relu"), nn.NewDropout("drop6", 0.5))
	add(nn.NewFC("fc7", 4096), nn.NewReLU("fc7.relu"), nn.NewDropout("drop7", 0.5))
	add(nn.NewFC("fc8", 1000))
	add(nn.NewSoftmaxLoss("loss"))
	return &Model{Net: net, InputSize: 227, InputChans: 3, Classes: 1000}
}

// VGG19 builds VGGNet configuration E: 16 convolutional + 3
// fully-connected layers, >144 M parameters (the paper's Section I).
func VGG19(eng impls.Engine) *Model {
	net := nn.NewNet("VGG-19")
	add := func(ls ...nn.Layer) {
		for _, l := range ls {
			net.Add(l)
		}
	}
	block := func(prefix string, filters, convs int) {
		for i := 1; i <= convs; i++ {
			add(convRelu(prefix+string(rune('0'+i)), eng, filters, 3, 1, 1)...)
		}
		add(nn.NewMaxPool(prefix+"pool", 2, 2, 0))
	}
	block("conv1_", 64, 2)  // 224 -> 112
	block("conv2_", 128, 2) // -> 56
	block("conv3_", 256, 4) // -> 28
	block("conv4_", 512, 4) // -> 14
	block("conv5_", 512, 4) // -> 7
	add(nn.NewFC("fc6", 4096), nn.NewReLU("fc6.relu"), nn.NewDropout("drop6", 0.5))
	add(nn.NewFC("fc7", 4096), nn.NewReLU("fc7.relu"), nn.NewDropout("drop7", 0.5))
	add(nn.NewFC("fc8", 1000))
	add(nn.NewSoftmaxLoss("loss"))
	return &Model{Net: net, InputSize: 224, InputChans: 3, Classes: 1000}
}

// inception builds one GoogLeNet inception module.
func inception(name string, eng impls.Engine, c1, r3, c3, r5, c5, pp int) *nn.Branch {
	return nn.NewBranch(name,
		convRelu(name+".1x1", eng, c1, 1, 1, 0),
		append(convRelu(name+".3x3r", eng, r3, 1, 1, 0), convRelu(name+".3x3", eng, c3, 3, 1, 1)...),
		append(convRelu(name+".5x5r", eng, r5, 1, 1, 0), convRelu(name+".5x5", eng, c5, 5, 1, 2)...),
		append([]nn.Layer{nn.NewMaxPool(name+".pool", 3, 1, 1)}, convRelu(name+".proj", eng, pp, 1, 1, 0)...),
	)
}

// GoogLeNet builds the 22-layer inception network, ≈6.8 M parameters
// (the paper's Section I). Auxiliary classifiers are omitted, as in the
// deployed model.
func GoogLeNet(eng impls.Engine) *Model {
	net := nn.NewNet("GoogLeNet")
	add := func(ls ...nn.Layer) {
		for _, l := range ls {
			net.Add(l)
		}
	}
	add(convRelu("conv1", eng, 64, 7, 2, 3)...) // 224 -> 112
	add(nn.NewMaxPool("pool1", 3, 2, 0))        // -> 56
	add(nn.NewLRN("norm1", 5, 0, 0, 0))
	add(convRelu("conv2r", eng, 64, 1, 1, 0)...)
	add(convRelu("conv2", eng, 192, 3, 1, 1)...)
	add(nn.NewLRN("norm2", 5, 0, 0, 0))
	add(nn.NewMaxPool("pool2", 3, 2, 0)) // -> 28
	add(inception("3a", eng, 64, 96, 128, 16, 32, 32))
	add(inception("3b", eng, 128, 128, 192, 32, 96, 64))
	add(nn.NewMaxPool("pool3", 3, 2, 0)) // -> 14
	add(inception("4a", eng, 192, 96, 208, 16, 48, 64))
	add(inception("4b", eng, 160, 112, 224, 24, 64, 64))
	add(inception("4c", eng, 128, 128, 256, 24, 64, 64))
	add(inception("4d", eng, 112, 144, 288, 32, 64, 64))
	add(inception("4e", eng, 256, 160, 320, 32, 128, 128))
	add(nn.NewMaxPool("pool4", 3, 2, 0)) // -> 7
	add(inception("5a", eng, 256, 160, 320, 32, 128, 128))
	add(inception("5b", eng, 384, 192, 384, 48, 128, 128))
	add(nn.NewAvgPool("pool5", 7, 1, 0)) // -> 1
	add(nn.NewDropout("drop", 0.4))
	add(nn.NewFC("fc", 1000))
	add(nn.NewSoftmaxLoss("loss"))
	return &Model{Net: net, InputSize: 224, InputChans: 3, Classes: 1000}
}

// OverFeat builds the fast OverFeat model (5 conv + 3 FC).
func OverFeat(eng impls.Engine) *Model {
	net := nn.NewNet("OverFeat")
	add := func(ls ...nn.Layer) {
		for _, l := range ls {
			net.Add(l)
		}
	}
	add(convRelu("conv1", eng, 96, 11, 4, 0)...) // 231 -> 56
	add(nn.NewMaxPool("pool1", 2, 2, 0))         // -> 28
	add(convRelu("conv2", eng, 256, 5, 1, 0)...) // -> 24
	add(nn.NewMaxPool("pool2", 2, 2, 0))         // -> 12
	add(convRelu("conv3", eng, 512, 3, 1, 1)...)
	add(convRelu("conv4", eng, 1024, 3, 1, 1)...)
	add(convRelu("conv5", eng, 1024, 3, 1, 1)...)
	add(nn.NewMaxPool("pool5", 2, 2, 0)) // -> 6
	add(nn.NewFC("fc6", 3072), nn.NewReLU("fc6.relu"), nn.NewDropout("drop6", 0.5))
	add(nn.NewFC("fc7", 4096), nn.NewReLU("fc7.relu"), nn.NewDropout("drop7", 0.5))
	add(nn.NewFC("fc8", 1000))
	add(nn.NewSoftmaxLoss("loss"))
	return &Model{Net: net, InputSize: 231, InputChans: 3, Classes: 1000}
}

// LeNet5 builds the paper's Figure 1 example network for 28×28
// grayscale digits (MNIST geometry with pad-2 on the first layer).
func LeNet5(eng impls.Engine) *Model {
	net := nn.NewNet("LeNet-5")
	add := func(ls ...nn.Layer) {
		for _, l := range ls {
			net.Add(l)
		}
	}
	add(convRelu("conv1", eng, 6, 5, 1, 2)...)  // 28 -> 28
	add(nn.NewMaxPool("pool1", 2, 2, 0))        // -> 14
	add(convRelu("conv2", eng, 16, 5, 1, 0)...) // -> 10
	add(nn.NewMaxPool("pool2", 2, 2, 0))        // -> 5
	add(nn.NewFC("fc3", 120), nn.NewReLU("fc3.relu"))
	add(nn.NewFC("fc4", 84), nn.NewReLU("fc4.relu"))
	add(nn.NewFC("fc5", 10))
	add(nn.NewSoftmaxLoss("loss"))
	return &Model{Net: net, InputSize: 28, InputChans: 1, Classes: 10}
}

// Builders maps each model's name to its constructor.
var Builders = map[string]func(impls.Engine) *Model{
	"AlexNet":   AlexNet,
	"GoogLeNet": GoogLeNet,
	"VGG":       VGG19,
	"OverFeat":  OverFeat,
	"LeNet5":    LeNet5,
	"CIFARNet":  CIFARNet,
}

// Figure2 names the paper's four profiled models, in Figure 2's order.
var Figure2 = []string{"GoogLeNet", "VGG", "OverFeat", "AlexNet"}

// Build builds the named model (the name matched case-insensitively)
// on eng.
func Build(name string, eng impls.Engine) (*Model, error) {
	names := make([]string, 0, len(Builders))
	for n, build := range Builders {
		if strings.EqualFold(n, name) {
			return build(eng), nil
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("models: unknown model %q (have %s)", name, strings.Join(names, ", "))
}

// CIFARNet builds cuda-convnet's classic CIFAR-10 architecture
// ("layers-80sec": three 5×5 conv/pool stages and a linear classifier)
// — the CIFAR-10 workload the paper's introduction cites alongside
// MNIST and ImageNet.
func CIFARNet(eng impls.Engine) *Model {
	net := nn.NewNet("CIFARNet")
	add := func(ls ...nn.Layer) {
		for _, l := range ls {
			net.Add(l)
		}
	}
	add(convRelu("conv1", eng, 32, 5, 1, 2)...) // 32 -> 32
	add(nn.NewMaxPool("pool1", 3, 2, 0))        // -> 16
	add(convRelu("conv2", eng, 32, 5, 1, 2)...)
	add(nn.NewAvgPool("pool2", 3, 2, 0)) // -> 8
	add(convRelu("conv3", eng, 64, 5, 1, 2)...)
	add(nn.NewAvgPool("pool3", 3, 2, 0)) // -> 4
	add(nn.NewFC("fc10", 10))
	add(nn.NewSoftmaxLoss("loss"))
	return &Model{Net: net, InputSize: 32, InputChans: 3, Classes: 10}
}

// Evaluate runs the model on a full dataset in evaluation mode and
// returns the mean loss and top-1 accuracy, batching the forward passes.
func Evaluate(m *Model, images *tensor.Tensor, labels []int, batch int) (loss, acc float64) {
	n := images.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	ctx := nn.NewContext(nil, false)
	per := images.Len() / n
	var total, correct float64
	seen := 0
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		x := tensor.FromSlice(images.Data[start*per:end*per], append([]int{end - start}, images.Shape()[1:]...)...)
		m.Net.Forward(ctx, nn.NewValue(x))
		l, a := m.Net.Loss().Loss(labels[start:end])
		total += l * float64(end-start)
		correct += a * float64(end-start)
		seen += end - start
	}
	return total / float64(seen), correct / float64(seen)
}
