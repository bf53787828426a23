// Package dataset provides the training-data substrate for the
// examples: a deterministic synthetic digit dataset with the geometry
// of MNIST (the dataset LeNet-5 — the paper's Figure 1 network — was
// built for) and a batch iterator. Runtime results in this repository
// depend only on tensor shapes, so the synthetic generator preserves
// everything the experiments need.
package dataset

import (
	"fmt"

	"gpucnn/internal/tensor"
)

// Dataset is a labelled image collection in NCHW order.
type Dataset struct {
	Images  *tensor.Tensor // (N, C, H, W)
	Labels  []int
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return d.Images.Dim(0) }

// Dims returns (channels, height, width).
func (d *Dataset) Dims() (c, h, w int) {
	return d.Images.Dim(1), d.Images.Dim(2), d.Images.Dim(3)
}

// Batch copies examples [start, start+size) into a fresh batch tensor
// and label slice, wrapping around the end of the dataset.
func (d *Dataset) Batch(start, size int) (*tensor.Tensor, []int) {
	c, h, w := d.Dims()
	x := tensor.New(size, c, h, w)
	labels := make([]int, size)
	per := c * h * w
	n := d.Len()
	for i := 0; i < size; i++ {
		src := (start + i) % n
		copy(x.Data[i*per:(i+1)*per], d.Images.Data[src*per:(src+1)*per])
		labels[i] = d.Labels[src]
	}
	return x, labels
}

// Split partitions the dataset into train/test at the given index.
func (d *Dataset) Split(trainN int) (train, test *Dataset) {
	if trainN <= 0 || trainN >= d.Len() {
		panic(fmt.Sprintf("dataset: split %d of %d", trainN, d.Len()))
	}
	c, h, w := d.Dims()
	per := c * h * w
	train = &Dataset{
		Images:  tensor.FromSlice(d.Images.Data[:trainN*per], trainN, c, h, w),
		Labels:  d.Labels[:trainN],
		Classes: d.Classes,
	}
	test = &Dataset{
		Images:  tensor.FromSlice(d.Images.Data[trainN*per:], d.Len()-trainN, c, h, w),
		Labels:  d.Labels[trainN:],
		Classes: d.Classes,
	}
	return train, test
}

// strokes describes each synthetic digit class as a small set of line
// segments on a 7×7 design grid, scaled to the image size. The classes
// are visually distinct enough for LeNet-5 to separate quickly while
// remaining a real spatial-pattern problem.
var strokes = [10][][4]int{
	{{1, 1, 1, 5}, {1, 5, 5, 5}, {5, 5, 5, 1}, {5, 1, 1, 1}}, // 0: box
	{{1, 3, 5, 3}}, // 1: vertical bar
	{{1, 1, 1, 5}, {1, 5, 3, 5}, {3, 5, 3, 1}, {3, 1, 5, 1}, {5, 1, 5, 5}}, // 2
	{{1, 1, 1, 5}, {3, 1, 3, 5}, {5, 1, 5, 5}, {1, 5, 5, 5}},               // 3
	{{1, 1, 3, 1}, {3, 1, 3, 5}, {1, 3, 5, 3}},                             // 4 (rough)
	{{1, 5, 1, 1}, {1, 1, 3, 1}, {3, 1, 3, 5}, {3, 5, 5, 5}, {5, 5, 5, 1}}, // 5
	{{1, 3, 5, 3}, {5, 3, 5, 5}, {3, 3, 3, 5}},                             // 6 (rough)
	{{1, 1, 1, 5}, {1, 5, 5, 2}},                                           // 7
	{{1, 1, 1, 5}, {3, 1, 3, 5}, {5, 1, 5, 5}, {1, 1, 5, 1}, {1, 5, 5, 5}}, // 8
	{{1, 1, 1, 5}, {1, 5, 3, 5}, {3, 5, 3, 1}, {1, 1, 3, 1}},               // 9 (rough)
}

// Synthetic generates n deterministic digit-like examples of size
// size×size (single channel) with additive noise controlled by
// noise ∈ [0, 1).
func Synthetic(n, size int, noise float32, seed uint64) *Dataset {
	if size < 8 {
		panic("dataset: size must be at least 8")
	}
	r := tensor.NewRNG(seed)
	images := tensor.New(n, 1, size, size)
	labels := make([]int, n)
	scale := float32(size) / 7
	for i := 0; i < n; i++ {
		label := r.Intn(10)
		labels[i] = label
		img := images.Data[i*size*size : (i+1)*size*size]
		// Jitter the whole glyph by up to ±1 pixel.
		jx, jy := r.Intn(3)-1, r.Intn(3)-1
		for _, s := range strokes[label] {
			drawLine(img, size,
				int(float32(s[0])*scale)+jy, int(float32(s[1])*scale)+jx,
				int(float32(s[2])*scale)+jy, int(float32(s[3])*scale)+jx)
		}
		if noise > 0 {
			for j := range img {
				img[j] += noise * (2*r.Float32() - 1)
			}
		}
	}
	return &Dataset{Images: images, Labels: labels, Classes: 10}
}

// drawLine rasterises a segment from (y0,x0) to (y1,x1) with value 1.
func drawLine(img []float32, size, y0, x0, y1, x1 int) {
	steps := abs(y1-y0) + abs(x1-x0)
	if steps == 0 {
		steps = 1
	}
	for s := 0; s <= steps; s++ {
		y := y0 + (y1-y0)*s/steps
		x := x0 + (x1-x0)*s/steps
		if y >= 0 && y < size && x >= 0 && x < size {
			img[y*size+x] = 1
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SyntheticColor generates n deterministic 3-channel examples of size
// size×size: each class is a digit glyph rendered with a
// class-dependent colour mix over a coloured background — a CIFAR-like
// stand-in (the paper's introduction cites CIFAR-10's 32×32 colour
// images as a canonical workload).
func SyntheticColor(n, size int, noise float32, seed uint64) *Dataset {
	if size < 8 {
		panic("dataset: size must be at least 8")
	}
	r := tensor.NewRNG(seed)
	images := tensor.New(n, 3, size, size)
	labels := make([]int, n)
	scale := float32(size) / 7
	for i := 0; i < n; i++ {
		label := r.Intn(10)
		labels[i] = label
		mono := make([]float32, size*size)
		jx, jy := r.Intn(3)-1, r.Intn(3)-1
		for _, s := range strokes[label] {
			drawLine(mono, size,
				int(float32(s[0])*scale)+jy, int(float32(s[1])*scale)+jx,
				int(float32(s[2])*scale)+jy, int(float32(s[3])*scale)+jx)
		}
		// Class-dependent colour mix keeps channels informative.
		mix := [3]float32{
			0.3 + 0.7*float32(label%3)/2,
			0.3 + 0.7*float32((label/3)%3)/2,
			0.3 + 0.7*float32(label%2),
		}
		for ch := 0; ch < 3; ch++ {
			dst := images.Data[(i*3+ch)*size*size:]
			for j, v := range mono {
				dst[j] = v * mix[ch]
				if noise > 0 {
					dst[j] += noise * (2*r.Float32() - 1)
				}
			}
		}
	}
	return &Dataset{Images: images, Labels: labels, Classes: 10}
}
