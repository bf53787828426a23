package dataset

import (
	"testing"

	"gpucnn/internal/tensor"
)

func TestSyntheticShapesAndDeterminism(t *testing.T) {
	d := Synthetic(100, 28, 0.1, 7)
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	c, h, w := d.Dims()
	if c != 1 || h != 28 || w != 28 {
		t.Fatalf("Dims = %d,%d,%d", c, h, w)
	}
	d2 := Synthetic(100, 28, 0.1, 7)
	if tensor.MaxAbsDiff(d.Images, d2.Images) != 0 {
		t.Fatal("same seed must reproduce the dataset")
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestSyntheticClassesAreDistinct(t *testing.T) {
	// Noise-free class prototypes must pairwise differ.
	d := Synthetic(400, 16, 0, 3)
	proto := map[int][]float32{}
	per := 16 * 16
	for i := 0; i < d.Len(); i++ {
		l := d.Labels[i]
		if _, ok := proto[l]; !ok {
			proto[l] = d.Images.Data[i*per : (i+1)*per]
		}
	}
	if len(proto) != 10 {
		t.Fatalf("only %d classes sampled", len(proto))
	}
	// Jitter makes same-class images differ slightly, but cross-class
	// prototypes should differ in many pixels.
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			diff := 0
			for j := range proto[a] {
				if proto[a][j] != proto[b][j] {
					diff++
				}
			}
			if diff < 4 {
				t.Errorf("classes %d and %d nearly identical (%d differing pixels)", a, b, diff)
			}
		}
	}
}

func TestBatchWrapsAround(t *testing.T) {
	d := Synthetic(10, 8, 0, 1)
	x, labels := d.Batch(8, 4) // indices 8, 9, 0, 1
	if !x.Shape().Equal(tensor.Shape{4, 1, 8, 8}) {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if labels[2] != d.Labels[0] || labels[3] != d.Labels[1] {
		t.Fatal("wraparound labels wrong")
	}
	per := 64
	for j := 0; j < per; j++ {
		if x.Data[2*per+j] != d.Images.Data[j] {
			t.Fatal("wraparound pixels wrong")
		}
	}
}

func TestSplit(t *testing.T) {
	d := Synthetic(50, 8, 0, 2)
	train, test := d.Split(40)
	if train.Len() != 40 || test.Len() != 10 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if test.Labels[0] != d.Labels[40] {
		t.Fatal("split labels misaligned")
	}
}

func TestSplitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Synthetic(10, 8, 0, 1).Split(10)
}

func TestSyntheticColor(t *testing.T) {
	d := SyntheticColor(60, 32, 0.1, 5)
	c, h, w := d.Dims()
	if c != 3 || h != 32 || w != 32 {
		t.Fatalf("Dims = %d,%d,%d", c, h, w)
	}
	if !d.Images.AllFinite() {
		t.Fatal("non-finite pixels")
	}
	d2 := SyntheticColor(60, 32, 0.1, 5)
	if tensor.MaxAbsDiff(d.Images, d2.Images) != 0 {
		t.Fatal("not deterministic")
	}
	// Channels must differ (colour mix is class-dependent).
	same := true
	per := 32 * 32
	for j := 0; j < per; j++ {
		if d.Images.Data[j] != d.Images.Data[per+j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("channels identical — colour mix not applied")
	}
}
