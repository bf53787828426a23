package conv

import (
	"testing"
	"testing/quick"

	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

func TestConfigOut(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{Batch: 1, Input: 128, Channels: 3, Filters: 1, Kernel: 11, Stride: 1}, 118},
		{Config{Batch: 1, Input: 227, Channels: 3, Filters: 1, Kernel: 11, Stride: 4}, 55},
		{Config{Batch: 1, Input: 32, Channels: 3, Filters: 1, Kernel: 3, Stride: 1, Pad: 1}, 32},
		{Config{Batch: 1, Input: 16, Channels: 3, Filters: 1, Kernel: 7, Stride: 1}, 10},
	}
	for _, c := range cases {
		if got := c.cfg.Out(); got != c.want {
			t.Errorf("%v Out() = %d, want %d", c.cfg, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Batch: 2, Input: 8, Channels: 3, Filters: 4, Kernel: 3, Stride: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Batch: 0, Input: 8, Channels: 3, Filters: 4, Kernel: 3, Stride: 1},
		{Batch: 2, Input: 8, Channels: 3, Filters: 4, Kernel: 3, Stride: 0},
		{Batch: 2, Input: 8, Channels: 3, Filters: 4, Kernel: 3, Stride: 1, Pad: -1},
		{Batch: 2, Input: 4, Channels: 3, Filters: 4, Kernel: 9, Stride: 1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted: %v", i, c)
		}
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{Batch: 1, Input: 8, Filters: 2, Kernel: 3}.WithDefaults()
	if c.Channels != 3 || c.Stride != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Batch: 64, Input: 128, Channels: 3, Filters: 64, Kernel: 11, Stride: 1}
	if got := c.String(); got != "(64,128,64,11,1)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestConfigShapesAndBytes(t *testing.T) {
	c := Config{Batch: 2, Input: 8, Channels: 3, Filters: 4, Kernel: 3, Stride: 1}
	if !c.InputShape().Equal(tensor.Shape{2, 3, 8, 8}) {
		t.Fatalf("InputShape = %v", c.InputShape())
	}
	if !c.FilterShape().Equal(tensor.Shape{4, 3, 3, 3}) {
		t.Fatalf("FilterShape = %v", c.FilterShape())
	}
	if !c.OutputShape().Equal(tensor.Shape{2, 4, 6, 6}) {
		t.Fatalf("OutputShape = %v", c.OutputShape())
	}
	if c.InputBytes() != 2*3*8*8*4 {
		t.Fatalf("InputBytes = %d", c.InputBytes())
	}
}

func TestForwardFLOPs(t *testing.T) {
	c := Config{Batch: 2, Input: 5, Channels: 3, Filters: 4, Kernel: 3, Stride: 1}
	// 2 * 2 * 4 * 3 * 9 * 9 = 3888
	if got := c.ForwardFLOPs(); got != 3888 {
		t.Fatalf("ForwardFLOPs = %v, want 3888", got)
	}
	if c.TrainingFLOPs() != 3*3888 {
		t.Fatalf("TrainingFLOPs = %v", c.TrainingFLOPs())
	}
}

func TestStrategyString(t *testing.T) {
	if Direct.String() != "direct" || Unrolling.String() != "unrolling" || FFT.String() != "fft" {
		t.Fatal("strategy names wrong")
	}
}

func TestDirectForwardHandExample(t *testing.T) {
	// 1 image, 1 channel, 3x3 input, 1 filter of 2x2 ones, stride 1:
	// output is the sum of each 2x2 window.
	cfg := Config{Batch: 1, Input: 3, Channels: 1, Filters: 1, Kernel: 2, Stride: 1}
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	y := tensor.New(1, 1, 2, 2)
	DirectForward(cfg, x, w, y)
	want := []float32{12, 16, 24, 28}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("y = %v, want %v", y.Data, want)
		}
	}
}

func TestDirectForwardStride(t *testing.T) {
	cfg := Config{Batch: 1, Input: 4, Channels: 1, Filters: 1, Kernel: 2, Stride: 2}
	x := tensor.New(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	w := tensor.FromSlice([]float32{1, 0, 0, 0}, 1, 1, 2, 2)
	y := tensor.New(1, 1, 2, 2)
	DirectForward(cfg, x, w, y)
	// Picking the top-left of each stride-2 window: 0, 2, 8, 10.
	want := []float32{0, 2, 8, 10}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("y = %v, want %v", y.Data, want)
		}
	}
}

func TestDirectForwardPadding(t *testing.T) {
	// 1x1 kernel with pad 1 on a 2x2 input: output 4x4 with zero border.
	cfg := Config{Batch: 1, Input: 2, Channels: 1, Filters: 1, Kernel: 1, Stride: 1, Pad: 1}
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := tensor.FromSlice([]float32{1}, 1, 1, 1, 1)
	y := tensor.New(1, 1, 4, 4)
	DirectForward(cfg, x, w, y)
	want := []float32{
		0, 0, 0, 0,
		0, 1, 2, 0,
		0, 3, 4, 0,
		0, 0, 0, 0,
	}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("y = %v, want %v", y.Data, want)
		}
	}
}

func randTensors(cfg Config, seed uint64) (x, w *tensor.Tensor) {
	r := tensor.NewRNG(seed)
	x = tensor.New(cfg.InputShape()...)
	x.FillUniform(r, -1, 1)
	w = tensor.New(cfg.FilterShape()...)
	w.FillUniform(r, -1, 1)
	return
}

func TestUnrollMatchesDirectForward(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		cfg := Config{
			Batch: 1 + r.Intn(3), Input: 6 + r.Intn(8),
			Channels: 1 + r.Intn(3), Filters: 1 + r.Intn(4),
			Kernel: 1 + r.Intn(4), Stride: 1 + r.Intn(2), Pad: r.Intn(2),
		}
		if cfg.Validate() != nil {
			return true
		}
		x, w := randTensors(cfg, seed+1)
		y1 := tensor.New(cfg.OutputShape()...)
		y2 := tensor.New(cfg.OutputShape()...)
		DirectForward(cfg, x, w, y1)
		UnrollForward(new(workspace.Arena), cfg, x, w, y2)
		return tensor.AllClose(y1, y2, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkCIFARNetLayers runs agree on CIFARNet's conv1–conv3 at batch 2,
// whose FFT plan sizes (64, 32, 16) are larger than the random configs
// reach.
func checkCIFARNetLayers(t *testing.T, agree func(cfg Config, seed uint64) bool) {
	t.Helper()
	for _, tc := range cifarNetConvs {
		cfg := tc.cfg
		cfg.Batch = 2
		if !agree(cfg, 1) {
			t.Errorf("%s %v: engines disagree", tc.name, cfg)
		}
	}
}

func TestFFTMatchesDirectForward(t *testing.T) {
	agree := func(cfg Config, seed uint64) bool {
		x, w := randTensors(cfg, seed+2)
		y1 := tensor.New(cfg.OutputShape()...)
		y2 := tensor.New(cfg.OutputShape()...)
		DirectForward(cfg, x, w, y1)
		FFTForward(new(workspace.Arena), cfg, x, w, y2)
		return tensor.AllClose(y1, y2, 1e-3)
	}
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		cfg := Config{
			Batch: 1 + r.Intn(3), Input: 6 + r.Intn(10),
			Channels: 1 + r.Intn(3), Filters: 1 + r.Intn(4),
			Kernel: 1 + r.Intn(5), Stride: 1, Pad: r.Intn(2),
		}
		return cfg.Validate() != nil || agree(cfg, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	checkCIFARNetLayers(t, agree)
}

func TestFFTForwardRejectsStride2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT with stride 2 should panic")
		}
	}()
	cfg := Config{Batch: 1, Input: 8, Channels: 1, Filters: 1, Kernel: 3, Stride: 2}
	x, w := randTensors(cfg, 1)
	FFTForward(new(workspace.Arena), cfg, x, w, tensor.New(cfg.OutputShape()...))
}

func TestBackwardDataAgreement(t *testing.T) {
	agree := func(cfg Config, seed uint64) bool {
		_, w := randTensors(cfg, seed+3)
		dy := tensor.New(cfg.OutputShape()...)
		dy.FillUniform(tensor.NewRNG(seed+4), -1, 1)
		dx1 := tensor.New(cfg.InputShape()...)
		dx2 := tensor.New(cfg.InputShape()...)
		dx3 := tensor.New(cfg.InputShape()...)
		DirectBackwardData(cfg, dy, w, dx1)
		UnrollBackwardData(new(workspace.Arena), cfg, dy, w, dx2)
		FFTBackwardData(new(workspace.Arena), cfg, dy, w, dx3)
		return tensor.AllClose(dx1, dx2, 1e-4) && tensor.AllClose(dx1, dx3, 1e-3)
	}
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		cfg := Config{
			Batch: 1 + r.Intn(2), Input: 6 + r.Intn(6),
			Channels: 1 + r.Intn(3), Filters: 1 + r.Intn(3),
			Kernel: 1 + r.Intn(4), Stride: 1, Pad: r.Intn(2),
		}
		return cfg.Validate() != nil || agree(cfg, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	checkCIFARNetLayers(t, agree)
}

func TestBackwardFilterAgreement(t *testing.T) {
	agree := func(cfg Config, seed uint64) bool {
		x, _ := randTensors(cfg, seed+5)
		dy := tensor.New(cfg.OutputShape()...)
		dy.FillUniform(tensor.NewRNG(seed+6), -1, 1)
		dw1 := tensor.New(cfg.FilterShape()...)
		dw2 := tensor.New(cfg.FilterShape()...)
		dw3 := tensor.New(cfg.FilterShape()...)
		DirectBackwardFilter(cfg, x, dy, dw1)
		UnrollBackwardFilter(new(workspace.Arena), cfg, x, dy, dw2)
		FFTBackwardFilter(new(workspace.Arena), cfg, x, dy, dw3)
		return tensor.AllClose(dw1, dw2, 1e-4) && tensor.AllClose(dw1, dw3, 1e-3)
	}
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		cfg := Config{
			Batch: 1 + r.Intn(2), Input: 6 + r.Intn(6),
			Channels: 1 + r.Intn(3), Filters: 1 + r.Intn(3),
			Kernel: 1 + r.Intn(4), Stride: 1, Pad: r.Intn(2),
		}
		return cfg.Validate() != nil || agree(cfg, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	checkCIFARNetLayers(t, agree)
}

func TestStridedBackwardAgreement(t *testing.T) {
	// FFT cannot do stride > 1, but direct and unrolling must agree.
	cfg := Config{Batch: 2, Input: 9, Channels: 2, Filters: 3, Kernel: 3, Stride: 2}
	x, w := randTensors(cfg, 10)
	dy := tensor.New(cfg.OutputShape()...)
	dy.FillUniform(tensor.NewRNG(11), -1, 1)
	dx1 := tensor.New(cfg.InputShape()...)
	dx2 := tensor.New(cfg.InputShape()...)
	DirectBackwardData(cfg, dy, w, dx1)
	UnrollBackwardData(new(workspace.Arena), cfg, dy, w, dx2)
	if !tensor.AllClose(dx1, dx2, 1e-4) {
		t.Fatalf("strided backward-data disagreement: %g", tensor.RelDiff(dx1, dx2))
	}
	dw1 := tensor.New(cfg.FilterShape()...)
	dw2 := tensor.New(cfg.FilterShape()...)
	DirectBackwardFilter(cfg, x, dy, dw1)
	UnrollBackwardFilter(new(workspace.Arena), cfg, x, dy, dw2)
	if !tensor.AllClose(dw1, dw2, 1e-4) {
		t.Fatalf("strided backward-filter disagreement: %g", tensor.RelDiff(dw1, dw2))
	}
}

func TestBackwardDataMatchesNumericalGradient(t *testing.T) {
	cfg := Config{Batch: 1, Input: 5, Channels: 2, Filters: 2, Kernel: 3, Stride: 1}
	x, w := randTensors(cfg, 20)
	r := tensor.New(cfg.OutputShape()...)
	r.FillUniform(tensor.NewRNG(21), -1, 1)
	dx := tensor.New(cfg.InputShape()...)
	DirectBackwardData(cfg, r, w, dx)
	num := NumericalGradInput(cfg, DirectForward, x, w, r, 1e-2)
	if !tensor.AllClose(dx, num, 2e-2) {
		t.Fatalf("analytic dx differs from numerical: %g", tensor.RelDiff(dx, num))
	}
}

func TestBackwardFilterMatchesNumericalGradient(t *testing.T) {
	cfg := Config{Batch: 1, Input: 5, Channels: 2, Filters: 2, Kernel: 3, Stride: 1}
	x, w := randTensors(cfg, 22)
	r := tensor.New(cfg.OutputShape()...)
	r.FillUniform(tensor.NewRNG(23), -1, 1)
	dw := tensor.New(cfg.FilterShape()...)
	DirectBackwardFilter(cfg, x, r, dw)
	num := NumericalGradFilter(cfg, DirectForward, x, w, r, 1e-2)
	if !tensor.AllClose(dw, num, 2e-2) {
		t.Fatalf("analytic dw differs from numerical: %g", tensor.RelDiff(dw, num))
	}
}

func TestFFTPlanSize(t *testing.T) {
	cfg := Config{Batch: 1, Input: 100, Channels: 1, Filters: 1, Kernel: 3, Stride: 1}
	if got := FFTPlanSize(cfg); got != 128 {
		t.Fatalf("FFTPlanSize = %d, want 128", got)
	}
	cfg.Pad = 15
	if got := FFTPlanSize(cfg); got != 256 {
		t.Fatalf("padded FFTPlanSize = %d, want 256", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	cfg := Config{Batch: 1, Input: 8, Channels: 1, Filters: 1, Kernel: 3, Stride: 1}
	x := tensor.New(1, 1, 9, 9) // wrong input extent
	w := tensor.New(cfg.FilterShape()...)
	y := tensor.New(cfg.OutputShape()...)
	DirectForward(cfg, x, w, y)
}
