package impls

import (
	"testing"

	"gpucnn/internal/conv"
)

// fftModelOf returns the launch model an FFT engine builds for cfg,
// which fixes the transform size and the overlap-add tile count.
func fftModelOf(e Engine, cfg conv.Config) *fftModel {
	return e.(*engine).model(cfg).(*fftModel)
}

// Direct unit tests of fbfft's transform-size / tile-count selection.
func TestFbfftTilingChoices(t *testing.T) {
	e := NewFbfft()
	cases := []struct {
		input, kernel int
		wantN, wantT  int
	}{
		{128, 11, 128, 1}, // exact power of two: single tile
		{96, 11, 128, 1},  // pads up (cheaper than 4 tiles of 64)
		{144, 11, 64, 3},  // just past 128: 3×3 tiles of 64 beat one 256
		{256, 11, 256, 1}, // 256 single beats 9 tiles of 128
		{32, 11, 32, 1},
	}
	for _, c := range cases {
		cfg := conv.Config{Batch: 64, Input: c.input, Channels: 3, Filters: 64, Kernel: c.kernel, Stride: 1}
		m := fftModelOf(e, cfg)
		if m.n != c.wantN || m.tiles != c.wantT*c.wantT {
			t.Errorf("i=%d k=%d: tiling = (%d, %d tiles), want (%d, %d×%d tiles)",
				c.input, c.kernel, m.n, m.tiles, c.wantN, c.wantT, c.wantT)
		}
	}
}

func TestTheanoFFTNeverTiles(t *testing.T) {
	e := NewTheanoFFT()
	for _, i := range []int{64, 144, 200, 256} {
		cfg := conv.Config{Batch: 64, Input: i, Channels: 3, Filters: 64, Kernel: 11, Stride: 1}
		m := fftModelOf(e, cfg)
		if m.tiles != 1 {
			t.Errorf("Theano-fft should never tile, got %d tiles at i=%d", m.tiles, i)
		}
		if m.n < i {
			t.Errorf("transform %d smaller than input %d", m.n, i)
		}
	}
}

func TestFbfftVariantNames(t *testing.T) {
	v := NewFbfftVariant(FbfftOptions{DisableTiling: true, DisableTransformReuse: true})
	if v.Name() != "fbfft/no-tiling/no-reuse" {
		t.Fatalf("variant name = %q", v.Name())
	}
	if NewFbfft().Name() != "fbfft" {
		t.Fatal("base name changed")
	}
}
