package conv

import (
	"math"
	"testing"
	"testing/quick"

	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

func TestWinogradSupported(t *testing.T) {
	ok := Config{Batch: 1, Input: 8, Channels: 1, Filters: 1, Kernel: 3, Stride: 1}
	if err := WinogradSupported(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	k5 := ok
	k5.Kernel = 5
	if WinogradSupported(k5) == nil {
		t.Error("winograd must reject kernel != 3")
	}
	s2 := ok
	s2.Stride = 2
	if WinogradSupported(s2) == nil {
		t.Error("winograd must reject stride != 1")
	}
}

func TestWinogradIdentityFilter(t *testing.T) {
	// A centre-tap filter makes convolution the identity (valid mode
	// shifts by 1): y[oy][ox] = x[oy+1][ox+1].
	cfg := Config{Batch: 1, Input: 6, Channels: 1, Filters: 1, Kernel: 3, Stride: 1}
	x := tensor.New(cfg.InputShape()...)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	w := tensor.New(cfg.FilterShape()...)
	w.Set(1, 0, 0, 1, 1) // centre tap
	y := tensor.New(cfg.OutputShape()...)
	WinogradForward(new(workspace.Arena), cfg, x, w, y)
	o := cfg.Out()
	for oy := 0; oy < o; oy++ {
		for ox := 0; ox < o; ox++ {
			want := x.At(0, 0, oy+1, ox+1)
			if got := y.At(0, 0, oy, ox); absDiff(got, want) > 1e-4 {
				t.Fatalf("identity filter wrong at (%d,%d): %v vs %v", oy, ox, got, want)
			}
		}
	}
}

func absDiff(a, b float32) float32 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}

func TestWinogradMatchesDirect(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		cfg := Config{
			Batch: 1 + r.Intn(3), Input: 5 + r.Intn(12),
			Channels: 1 + r.Intn(4), Filters: 1 + r.Intn(4),
			Kernel: 3, Stride: 1, Pad: r.Intn(2),
		}
		if cfg.Validate() != nil {
			return true
		}
		x, w := randTensors(cfg, seed+30)
		y1 := tensor.New(cfg.OutputShape()...)
		y2 := tensor.New(cfg.OutputShape()...)
		DirectForward(cfg, x, w, y1)
		WinogradForward(new(workspace.Arena), cfg, x, w, y2)
		return tensor.AllClose(y1, y2, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWinogradOddOutputs(t *testing.T) {
	// Output extents that are not multiples of the 2×2 tile must clip
	// correctly.
	for _, in := range []int{5, 7, 9, 11} {
		cfg := Config{Batch: 1, Input: in, Channels: 2, Filters: 3, Kernel: 3, Stride: 1}
		x, w := randTensors(cfg, uint64(in))
		y1 := tensor.New(cfg.OutputShape()...)
		y2 := tensor.New(cfg.OutputShape()...)
		DirectForward(cfg, x, w, y1)
		WinogradForward(new(workspace.Arena), cfg, x, w, y2)
		if !tensor.AllClose(y1, y2, 1e-4) {
			t.Fatalf("input %d: winograd differs from direct by %g", in, tensor.RelDiff(y1, y2))
		}
	}
}

func TestWinogradMultiplyReduction(t *testing.T) {
	// For even outputs the reduction over direct convolution is exactly
	// 36/16 = 2.25×.
	cfg := Config{Batch: 4, Input: 10, Channels: 8, Filters: 16, Kernel: 3, Stride: 1}
	if cfg.Out()%2 != 0 {
		t.Fatal("test needs an even output")
	}
	direct := cfg.ForwardFLOPs() / 2 // multiplies only
	wino := WinogradMultiplies(cfg)
	if ratio := direct / wino; ratio < 2.24 || ratio > 2.26 {
		t.Fatalf("multiply reduction = %.3f, want 2.25", ratio)
	}
}

func TestWinogradRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for kernel 5")
		}
	}()
	cfg := Config{Batch: 1, Input: 8, Channels: 1, Filters: 1, Kernel: 5, Stride: 1}
	x, w := randTensors(cfg, 1)
	WinogradForward(new(workspace.Arena), cfg, x, w, tensor.New(cfg.OutputShape()...))
}

func TestWinogradBackwardDataMatchesDirect(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		cfg := Config{
			Batch: 1 + r.Intn(2), Input: 6 + r.Intn(8),
			Channels: 1 + r.Intn(3), Filters: 1 + r.Intn(3),
			Kernel: 3, Stride: 1, Pad: r.Intn(2),
		}
		if cfg.Validate() != nil {
			return true
		}
		_, w := randTensors(cfg, seed+40)
		dy := tensor.New(cfg.OutputShape()...)
		dy.FillUniform(tensor.NewRNG(seed+41), -1, 1)
		dx1 := tensor.New(cfg.InputShape()...)
		dx2 := tensor.New(cfg.InputShape()...)
		DirectBackwardData(cfg, dy, w, dx1)
		WinogradBackwardData(new(workspace.Arena), cfg, dy, w, dx2)
		return tensor.AllClose(dx1, dx2, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWinogradGEMMLayoutMatchesDirect checks both passes of the
// transform/GEMM/inverse pipeline against the direct reference on the
// shapes its layout has edge cases for: odd outputs (ragged tiles that
// the inverse clips), batches whose tile columns straddle the transform
// chunks, pad 0 and 1, channel and filter counts off the GEMM's 8-wide
// tiles and the 16-wide transform chunks, and AlexNet conv3–5. The
// outputs start as NaN, so an element the pass fails to write shows.
func TestWinogradGEMMLayoutMatchesDirect(t *testing.T) {
	cases := []namedConv{
		{"odd_out/pad0", Config{Batch: 1, Input: 9, Channels: 5, Filters: 7, Kernel: 3, Stride: 1}},
		{"odd_out/pad1", Config{Batch: 1, Input: 7, Channels: 3, Filters: 11, Kernel: 3, Stride: 1, Pad: 1}},
		{"batch3/odd_out", Config{Batch: 3, Input: 11, Channels: 20, Filters: 33, Kernel: 3, Stride: 1}},
		{"batch2/pad1", Config{Batch: 2, Input: 10, Channels: 17, Filters: 9, Kernel: 3, Stride: 1, Pad: 1}},
		{"batch5/tiny", Config{Batch: 5, Input: 3, Channels: 1, Filters: 1, Kernel: 3, Stride: 1}},
	}
	if !testing.Short() {
		cases = append(cases, alexNetConvs...)
	}
	nan := float32(math.NaN())
	var ws workspace.Arena
	for _, tc := range cases {
		cfg := tc.cfg
		x, w := randTensors(cfg, uint64(cfg.Input*cfg.Channels+cfg.Filters))
		want := tensor.New(cfg.OutputShape()...)
		DirectForward(cfg, x, w, want)
		got := tensor.New(cfg.OutputShape()...)
		got.Fill(nan)
		WinogradForward(&ws, cfg, x, w, got)
		if d := tensor.RelDiff(want, got); !(d <= 1e-4) {
			t.Errorf("%s %v forward: differs from direct by %g", tc.name, cfg, d)
		}

		dy := want
		wantDx := tensor.New(cfg.InputShape()...)
		DirectBackwardData(cfg, dy, w, wantDx)
		gotDx := tensor.New(cfg.InputShape()...)
		gotDx.Fill(nan)
		WinogradBackwardData(&ws, cfg, dy, w, gotDx)
		if d := tensor.RelDiff(wantDx, gotDx); !(d <= 1e-4) {
			t.Errorf("%s %v backward-data: differs from direct by %g", tc.name, cfg, d)
		}
	}
}
