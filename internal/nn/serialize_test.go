package nn

import (
	"bytes"
	"strings"
	"testing"

	"gpucnn/internal/tensor"
)

func tinyNet() *Net {
	return NewNet("tiny",
		NewConv("c1", nil, 4, 3, 1, 1),
		NewReLU("r1"),
		NewFC("fc", 3),
		NewSoftmaxLoss("loss"),
	)
}

func materialise(n *Net) {
	x := tensor.New(1, 2, 6, 6)
	x.FillUniform(tensor.NewRNG(1), -1, 1)
	n.Forward(NewContext(nil, false), NewValue(x))
}

func TestCheckpointRoundTrip(t *testing.T) {
	a := tinyNet()
	materialise(a)
	// Perturb weights so the round trip is meaningful.
	for _, p := range a.Params() {
		p.W.FillUniform(tensor.NewRNG(uint64(len(p.Name))), -1, 1)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	b := tinyNet()
	materialise(b)
	if err := b.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count mismatch %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if tensor.MaxAbsDiff(pa[i].W, pb[i].W) != 0 {
			t.Fatalf("parameter %s not restored exactly", pa[i].Name)
		}
	}
}

func TestCheckpointPredictionsSurvive(t *testing.T) {
	a := tinyNet()
	x := tensor.New(2, 2, 6, 6)
	x.FillUniform(tensor.NewRNG(5), -1, 1)
	outA := a.Forward(NewContext(nil, false), NewValue(x))

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := tinyNet()
	materialise(b)
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	outB := b.Forward(NewContext(nil, false), NewValue(x))
	if tensor.MaxAbsDiff(outA.Data, outB.Data) > 1e-6 {
		t.Fatal("restored network gives different predictions")
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	a := tinyNet()
	materialise(a)
	var buf bytes.Buffer
	a.Save(&buf)

	other := NewNet("other",
		NewConv("different", nil, 4, 3, 1, 1),
		NewFC("fc", 3),
		NewSoftmaxLoss("loss"),
	)
	x := tensor.New(1, 2, 6, 6)
	other.Forward(NewContext(nil, false), NewValue(x))
	err := other.Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("wrong-architecture load should fail with a name mismatch, got %v", err)
	}
}

func TestLoadRejectsWrongShape(t *testing.T) {
	a := tinyNet()
	materialise(a)
	var buf bytes.Buffer
	a.Save(&buf)

	bigger := NewNet("tiny",
		NewConv("c1", nil, 8, 3, 1, 1), // 8 filters instead of 4
		NewReLU("r1"),
		NewFC("fc", 3),
		NewSoftmaxLoss("loss"),
	)
	x := tensor.New(1, 2, 6, 6)
	bigger.Forward(NewContext(nil, false), NewValue(x))
	if err := bigger.Load(&buf); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	n := tinyNet()
	materialise(n)
	if err := n.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage input should fail")
	}
	if err := n.Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
}

// TestLoadAfterShapeOnlyPassSurvivesFirstRealPass loads a checkpoint
// into a net whose parameters were declared by a shape-only pass: the
// first real pass must run the loaded weights, not re-initialise them.
func TestLoadAfterShapeOnlyPassSurvivesFirstRealPass(t *testing.T) {
	x := tensor.New(2, 2, 6, 6)
	x.FillUniform(tensor.NewRNG(5), -1, 1)
	a := tinyNet()
	materialise(a)
	for _, p := range a.Params() {
		p.W.FillUniform(tensor.NewRNG(uint64(len(p.Name))), -1, 1)
	}
	want := a.Forward(NewContext(nil, false), NewValue(x)).Data.Clone()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	b := tinyNet()
	b.Forward(NewContext(nil, false), ShapeOnly(2, 2, 6, 6))
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := b.Forward(NewContext(nil, false), NewValue(x)).Data
	if d := tensor.MaxAbsDiff(want, got); d > 1e-6 {
		t.Fatalf("loaded net's first real pass differs from the saved net by %g", d)
	}
}
