package conv

import (
	"testing"

	"gpucnn/internal/gemm"
	"gpucnn/internal/im2col"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// fanConfigs are shapes whose per-image GEMMs are large enough to fan
// out over the pool (m·n·k ≥ 2²⁰ on every pass), one at stride 1 and one
// at stride 2 with a ragged output edge.
var fanConfigs = []Config{
	{Input: 20, Channels: 16, Filters: 32, Kernel: 5, Stride: 1, Pad: 2},
	{Input: 23, Channels: 8, Filters: 48, Kernel: 5, Stride: 2, Pad: 1},
}

// TestUnrollFannedPassesMatchDirect runs all three unroll passes at
// batch 1 and batch 3 against the direct reference. Batch 1 fans each
// image's GEMM out at any GOMAXPROCS above 1; batch 3 does under -cpu 4,
// where three slots each fan their image's GEMM out at once. The
// forward output of every image must also be bit-identical to
// gemm.BlockedVirtualB on that image, because the fanned GEMM walks the
// same blocks in the same order as the serial one, and the
// backward-data output to gemm.TN followed by a serial im2col.Col2im,
// because each channel range of the fanned col2im has one writer.
func TestUnrollFannedPassesMatchDirect(t *testing.T) {
	for _, base := range fanConfigs {
		for _, batch := range []int{1, 3} {
			cfg := base
			cfg.Batch = batch
			x, w := randTensors(cfg, 30)
			dy := tensor.New(cfg.OutputShape()...)
			dy.FillUniform(tensor.NewRNG(31), -1, 1)
			var ws workspace.Arena

			y1, y2 := tensor.New(cfg.OutputShape()...), tensor.New(cfg.OutputShape()...)
			DirectForward(cfg, x, w, y1)
			UnrollForward(&ws, cfg, x, w, y2)
			if !tensor.AllClose(y1, y2, 1e-4) {
				t.Errorf("%v forward: differs from direct by %g", cfg, tensor.RelDiff(y1, y2))
			}
			g := cfg.geom()
			imgLen, outLen := cfg.Channels*cfg.Input*cfg.Input, cfg.Filters*g.ColCols()
			want := make([]float32, outLen)
			pk := im2col.GetPacker()
			for n := 0; n < batch; n++ {
				pk.Reset(g, x.Data[n*imgLen:(n+1)*imgLen])
				gemm.BlockedVirtualB(new(workspace.Arena), 1, w.Data, pk, 0, want, cfg.Filters, g.ColCols(), g.ColRows())
				for i, v := range y2.Data[n*outLen : (n+1)*outLen] {
					if v != want[i] {
						t.Fatalf("%v forward image %d: element %d is %g, serial GEMM gives %g", cfg, n, i, v, want[i])
					}
				}
			}
			im2col.PutPacker(pk)

			dx1, dx2 := tensor.New(cfg.InputShape()...), tensor.New(cfg.InputShape()...)
			DirectBackwardData(cfg, dy, w, dx1)
			UnrollBackwardData(&ws, cfg, dy, w, dx2)
			if !tensor.AllClose(dx1, dx2, 1e-4) {
				t.Errorf("%v backward-data: differs from direct by %g", cfg, tensor.RelDiff(dx1, dx2))
			}
			// The fanned TN GEMM and the channel-split col2im must give
			// the bits of a serial TN and Col2im on every image.
			col, img := make([]float32, g.ColRows()*g.ColCols()), make([]float32, imgLen)
			for n := 0; n < batch; n++ {
				gemm.TN(new(workspace.Arena), 1, w.Data, dy.Data[n*outLen:(n+1)*outLen], 0, col, g.ColRows(), g.ColCols(), cfg.Filters)
				im2col.Col2im(g, col, img)
				for i, v := range dx2.Data[n*imgLen : (n+1)*imgLen] {
					if v != img[i] {
						t.Fatalf("%v backward-data image %d: element %d is %g, serial TN and Col2im give %g", cfg, n, i, v, img[i])
					}
				}
			}

			dw1, dw2 := tensor.New(cfg.FilterShape()...), tensor.New(cfg.FilterShape()...)
			DirectBackwardFilter(cfg, x, dy, dw1)
			UnrollBackwardFilter(&ws, cfg, x, dy, dw2)
			if !tensor.AllClose(dw1, dw2, 1e-4) {
				t.Errorf("%v backward-filter: differs from direct by %g", cfg, tensor.RelDiff(dw1, dw2))
			}
		}
	}
}
