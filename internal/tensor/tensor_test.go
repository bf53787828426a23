package tensor

import (
	"math"
	"testing"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{2, 3}, 6},
		{Shape{4, 3, 2, 1}, 24},
		{Shape{7, 0, 3}, 0},
	}
	for _, c := range cases {
		if got := c.shape.Elems(); got != c.want {
			t.Errorf("Elems(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{2, 3, 4}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatalf("clone not equal: %v vs %v", s, c)
	}
	c[0] = 9
	if s.Equal(c) {
		t.Fatal("mutating clone affected original comparison")
	}
	if s.Equal(Shape{2, 3}) {
		t.Fatal("shapes of different rank compared equal")
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{1, 2, 3}).String(); got != "[1 2 3]" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d, want 6", x.Len())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestOffsetRowMajor(t *testing.T) {
	x := New(2, 3, 4)
	want := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if got := x.Offset(i, j, k); got != want {
					t.Fatalf("Offset(%d,%d,%d) = %d, want %d", i, j, k, got, want)
				}
				want++
			}
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.Data[2*4+1]; got != 7.5 {
		t.Fatalf("flat storage = %v, want 7.5", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rank mismatch")
		}
	}()
	New(2, 2).At(1)
}

func TestFromSliceAliases(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	x := FromSlice(data, 2, 2)
	x.Set(9, 0, 1)
	if data[1] != 9 {
		t.Fatal("FromSlice should alias the backing slice")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 2, 3)
	if x.At(1, 5) != 5 {
		t.Fatal("Reshape should share backing data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Set(2, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone should be independent")
	}
}

func TestScaleAddScaledSum(t *testing.T) {
	x := New(4)
	x.Fill(2)
	x.Scale(3)
	if x.Sum() != 24 {
		t.Fatalf("Sum after scale = %v, want 24", x.Sum())
	}
	y := New(4)
	y.Fill(1)
	x.AddScaled(y, -2)
	if x.Sum() != 16 {
		t.Fatalf("Sum after AddScaled = %v, want 16", x.Sum())
	}
}

func TestAbsMax(t *testing.T) {
	x := FromSlice([]float32{1, -5, 3}, 3)
	if got := x.AbsMax(); got != 5 {
		t.Fatalf("AbsMax = %v, want 5", got)
	}
}

func TestBytes(t *testing.T) {
	if got := New(10, 10).Bytes(); got != 400 {
		t.Fatalf("Bytes = %d, want 400", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical stream")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped to a working state")
	}
}

func TestRNGFloat32Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestFillUniformBounds(t *testing.T) {
	x := New(1000)
	x.FillUniform(NewRNG(3), -2, 2)
	for _, v := range x.Data {
		if v < -2 || v >= 2 {
			t.Fatalf("uniform fill out of range: %v", v)
		}
	}
}

func TestFillNormalStats(t *testing.T) {
	x := New(20000)
	x.FillNormal(NewRNG(5), 1)
	mean := x.Sum() / float64(x.Len())
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal fill mean too far from 0: %v", mean)
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) did not cover all values: %v", seen)
	}
}

func TestRelDiffAndAllClose(t *testing.T) {
	a := FromSlice([]float32{10, 20}, 2)
	b := FromSlice([]float32{10, 21}, 2)
	if d := RelDiff(a, b); d < 0.047 || d > 0.048 {
		t.Fatalf("RelDiff = %v, want ~1/21", d)
	}
	if !AllClose(a, b, 0.05) {
		t.Fatal("AllClose(0.05) should hold")
	}
	if AllClose(a, b, 0.01) {
		t.Fatal("AllClose(0.01) should fail")
	}
}

func TestRelDiffZeroTensors(t *testing.T) {
	a, b := New(3), New(3)
	if RelDiff(a, b) != 0 {
		t.Fatal("zero tensors should have zero RelDiff")
	}
}

// TestDiffsRejectNaN: a NaN or infinite output never compares close to
// a finite reference, whichever side it is on.
func TestDiffsRejectNaN(t *testing.T) {
	ref := FromSlice([]float32{1, -2, 3}, 3)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, bad := range [][]float32{
		{nan, nan, nan},
		{1, nan, 3},
		{1, -2, inf},
	} {
		got := FromSlice(bad, 3)
		for _, pair := range [][2]*Tensor{{ref, got}, {got, ref}} {
			if d := MaxAbsDiff(pair[0], pair[1]); !math.IsInf(d, 1) {
				t.Errorf("MaxAbsDiff(%v, %v) = %v, want +Inf", pair[0].Data, pair[1].Data, d)
			}
			if d := RelDiff(pair[0], pair[1]); !math.IsInf(d, 1) {
				t.Errorf("RelDiff(%v, %v) = %v, want +Inf", pair[0].Data, pair[1].Data, d)
			}
			if AllClose(pair[0], pair[1], 1e-3) {
				t.Errorf("AllClose(%v, %v) = true", pair[0].Data, pair[1].Data)
			}
		}
	}
}

func TestAllFinite(t *testing.T) {
	x := New(3)
	if !x.AllFinite() {
		t.Fatal("zeros should be finite")
	}
	big := float32(1e38)
	x.Data[1] = big * 10 // overflows to +Inf
	if x.AllFinite() {
		t.Fatal("Inf should be detected")
	}
}
