package tensor

import (
	"fmt"
	"math"
)

// MaxAbsDiff returns the maximum element-wise absolute difference between
// two tensors of identical shape. A NaN difference (a NaN on either side,
// or infinities of the same sign) returns +Inf, so no tolerance accepts it.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.Shape().Equal(b.Shape()) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", a.Shape(), b.Shape()))
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}

// RelDiff returns the maximum element-wise difference normalised by the
// larger tensor's absolute maximum. It is the comparison used to
// cross-validate convolution engines against each other: float32
// accumulation order differs between strategies, so exact equality is
// not expected. An infinite MaxAbsDiff stays +Inf.
func RelDiff(a, b *Tensor) float64 {
	d := MaxAbsDiff(a, b)
	scale := float64(a.AbsMax())
	if s := float64(b.AbsMax()); s > scale {
		scale = s
	}
	if scale == 0 || math.IsInf(d, 1) {
		return d
	}
	return d / scale
}

// AllClose reports whether every pair of elements differs by at most tol
// after normalisation by the tensors' magnitude.
func AllClose(a, b *Tensor, tol float64) bool {
	return RelDiff(a, b) <= tol
}

// AllFinite reports whether the tensor contains no NaN or Inf values.
func (t *Tensor) AllFinite() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
