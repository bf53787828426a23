// Package tensor provides dense float32 tensors in NCHW layout. It is
// the shared data substrate for every convolution implementation in
// this repository.
package tensor

import (
	"fmt"
	"strings"
)

// Shape describes the extent of each tensor dimension, outermost first.
// A 4-D activation tensor uses (N, C, H, W) order; a filter bank uses
// (F, C, Kh, Kw).
type Shape []int

// Elems returns the total number of elements implied by the shape.
// The empty shape has one element (a scalar).
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as "[N C H W]"-style text.
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor; use New or FromSlice to construct a usable one.
type Tensor struct {
	shape  Shape
	stride []int
	Data   []float32
}

// New allocates a zero-filled tensor with the given dimensions.
func New(dims ...int) *Tensor {
	s := Shape(dims)
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in %v", dims))
		}
	}
	t := &Tensor{shape: s.Clone(), Data: make([]float32, s.Elems())}
	t.computeStrides()
	return t
}

// FromSlice wraps an existing backing slice. The slice length must equal
// the number of elements implied by dims; the tensor aliases the slice.
func FromSlice(data []float32, dims ...int) *Tensor {
	s := Shape(dims)
	if s.Elems() != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), s, s.Elems()))
	}
	t := &Tensor{shape: s.Clone(), Data: data}
	t.computeStrides()
	return t
}

func (t *Tensor) computeStrides() {
	t.stride = make([]int, len(t.shape))
	acc := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.stride[i] = acc
		acc *= t.shape[i]
	}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() Shape { return t.shape }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Bytes returns the storage footprint in bytes (4 bytes per element).
func (t *Tensor) Bytes() int64 { return int64(len(t.Data)) * 4 }

// Offset converts a multi-index to a flat offset into Data.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off += x * t.stride[i]
	}
	return off
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.Offset(idx...)] }

// Set stores v at the multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.Offset(idx...)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. The element
// count must be preserved.
func (t *Tensor) Reshape(dims ...int) *Tensor {
	return FromSlice(t.Data, dims...)
}

// Zero resets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies every element by v in place.
func (t *Tensor) Scale(v float32) {
	for i := range t.Data {
		t.Data[i] *= v
	}
}

// AddScaled adds alpha*o to t element-wise. Shapes must match.
func (t *Tensor) AddScaled(o *Tensor, alpha float32) {
	if !t.shape.Equal(o.shape) {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.Data {
		t.Data[i] += alpha * o.Data[i]
	}
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// AbsMax returns the maximum absolute element value.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
