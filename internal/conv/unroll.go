package conv

import (
	"runtime"

	"gpucnn/internal/gemm"
	"gpucnn/internal/im2col"
	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// geom builds the im2col geometry for one image of the config.
func (c Config) geom() im2col.Geom {
	return im2col.Geom{
		C: c.Channels, H: c.Input, W: c.Input,
		KH: c.Kernel, KW: c.Kernel,
		StrideH: c.Stride, StrideW: c.Stride,
		PadH: c.Pad, PadW: c.Pad,
	}
}

// fanGEMM is the one rule the unroll passes share for where their
// parallelism goes. A pass hands out its items (images, or chunks of
// images for backward-filter) one slot each; when there are fewer items
// than procs, the slots alone would leave cores idle, so each item's
// GEMM fans its ic/jr macro-loops over the par pool as well. Otherwise
// every item runs a serial GEMM and the items keep every core busy.
func fanGEMM(items int) bool { return items < runtime.GOMAXPROCS(0) }

// unrollFwdJob is the pooled work unit of UnrollForward: a worker runs
// one GEMM per claimed image, carving its packing panels from its
// slot's child arena. The lowered column matrix is never materialised:
// a pooled im2col PanelPacker generates each packed B micro-panel on
// demand inside the GEMM (fused im2col→pack), so no worker needs
// rows×cols floats of workspace.
type unrollFwdJob struct {
	par.Span
	g              im2col.Geom
	rows, cols     int
	imgLen, outLen int
	filters        int
	fan            bool
	x, w, y        []float32
	kids           []*workspace.Arena
}

//hot:noalloc
func (j *unrollFwdJob) Run(slot int) {
	ws := j.kids[slot]
	pk := im2col.GetPacker()
	for n, ok := j.Claim(); ok; n, ok = j.Claim() {
		ws.Reset()
		pk.Reset(j.g, j.x[n*j.imgLen:(n+1)*j.imgLen])
		// y_n (f×o²) = W (f×(c·k²)) · col ((c·k²)×o²), col virtual
		y := j.y[n*j.outLen : (n+1)*j.outLen]
		if j.fan {
			gemm.ParallelVirtualB(ws, 1, j.w, pk, 0, y, j.filters, j.cols, j.rows)
		} else {
			gemm.BlockedVirtualB(ws, 1, j.w, pk, 0, y, j.filters, j.cols, j.rows)
		}
	}
	im2col.PutPacker(pk)
}

var unrollFwdPool = par.NewJobPool[unrollFwdJob]()

// UnrollForward computes the convolution by lowering each image to a
// column matrix (im2col) and multiplying it by the filter bank viewed
// as an f×(c·k²) matrix — the Caffe/Torch-cunn/Theano-CorrMM scheme,
// one GEMM per image. Images are claimed one per slot; when the batch
// is smaller than GOMAXPROCS, each image's GEMM also fans out over the
// pool (fanGEMM), so batch 1 runs on every core. The fanned GEMM blocks
// and accumulates like the serial one, so its output is the same bits.
// The lowering is fused into the GEMM's packing, so the column matrix
// only ever exists as L1-resident micro-panels. Scratch comes from ws,
// which the pass resets.
func UnrollForward(ws *workspace.Arena, cfg Config, x, w, y *tensor.Tensor) {
	checkShapes(cfg, x, w, y)
	ws.Reset()
	g := cfg.geom()
	j := unrollFwdPool.Get()
	j.Reset(cfg.Batch)
	j.g, j.rows, j.cols = g, g.ColRows(), g.ColCols()
	j.imgLen = cfg.Channels * cfg.Input * cfg.Input
	j.outLen = cfg.Filters * j.cols
	j.filters, j.fan = cfg.Filters, fanGEMM(cfg.Batch)
	j.x, j.w, j.y = x.Data, w.Data, y.Data
	j.kids = ws.Children(j.Slots())
	par.ForEachSlot(&j.Span, j)
	ws.Level()
	j.x, j.w, j.y, j.kids = nil, nil, nil, nil
	unrollFwdPool.Put(j)
}

// unrollBwdDataJob is the pooled work unit of UnrollBackwardData: a
// worker lowers each claimed image's gradient into a column matrix and
// scatters it back, carving both the column matrix and the GEMM's
// packing panels from its slot's child arena.
type unrollBwdDataJob struct {
	par.Span
	g              im2col.Geom
	rows, cols     int
	imgLen, outLen int
	filters        int
	fan            bool
	dy, w, dx      []float32
	kids           []*workspace.Arena
}

func (j *unrollBwdDataJob) Run(slot int) {
	ws := j.kids[slot]
	for n, ok := j.Claim(); ok; n, ok = j.Claim() {
		ws.Reset()
		col := ws.Float32Uninit(j.rows * j.cols)
		// col ((c·k²)×o²) = Wᵀ ((c·k²)×f) · dy_n (f×o²)
		dy := j.dy[n*j.outLen : (n+1)*j.outLen]
		if j.fan {
			gemm.ParallelTN(ws, 1, j.w, dy, 0, col, j.rows, j.cols, j.filters)
		} else {
			gemm.TN(ws, 1, j.w, dy, 0, col, j.rows, j.cols, j.filters)
		}
		im2col.Col2im(j.g, col, j.dx[n*j.imgLen:(n+1)*j.imgLen])
	}
}

var unrollBwdDataPool = par.NewJobPool[unrollBwdDataJob]()

// UnrollBackwardData computes dx: per image, col = Wᵀ·dy_n followed by
// col2im to scatter-accumulate the gradient back to input pixels.
// Images are claimed one per slot, and under the same rule as
// UnrollForward a batch smaller than GOMAXPROCS fans each image's TN
// GEMM over the pool; col2im stays on the image's slot.
func UnrollBackwardData(ws *workspace.Arena, cfg Config, dy, w, dx *tensor.Tensor) {
	checkShapes(cfg, dx, w, dy)
	ws.Reset()
	g := cfg.geom()
	j := unrollBwdDataPool.Get()
	j.Reset(cfg.Batch)
	j.g, j.rows, j.cols = g, g.ColRows(), g.ColCols()
	j.imgLen = cfg.Channels * cfg.Input * cfg.Input
	j.outLen = cfg.Filters * j.cols
	j.filters, j.fan = cfg.Filters, fanGEMM(cfg.Batch)
	j.dy, j.w, j.dx = dy.Data, w.Data, dx.Data
	j.kids = ws.Children(j.Slots())
	par.ForEachSlot(&j.Span, j)
	ws.Level()
	j.dy, j.w, j.dx, j.kids = nil, nil, nil, nil
	unrollBwdDataPool.Put(j)
}

// unrollBwdFilterJob accumulates contiguous chunks of the batch, each
// into its own partial filter gradient (one buffer per chunk, not per
// sample). A worker claims chunks and carves its GEMMs' packing panels
// from its slot's child arena.
type unrollBwdFilterJob struct {
	par.Span
	g              im2col.Geom
	rows, cols     int
	imgLen, outLen int
	filters, wLen  int
	batch, per     int
	fan            bool
	x, dy          []float32
	partials       []float32
	kids           []*workspace.Arena
}

//hot:noalloc
func (j *unrollBwdFilterJob) Run(slot int) {
	ws := j.kids[slot]
	pk := im2col.GetPacker()
	for ci, ok := j.Claim(); ok; ci, ok = j.Claim() {
		partial := j.partials[ci*j.wLen : (ci+1)*j.wLen]
		for n := ci * j.per; n < min((ci+1)*j.per, j.batch); n++ {
			// dw_n (f×(c·k²)) = dy_n (f×o²) · colᵀ (o²×(c·k²)) — an NN
			// GEMM against the virtual transposed lowering; beta=1
			// accumulates straight into the chunk partial and col is
			// never materialised.
			ws.Reset()
			pk.ResetTransposed(j.g, j.x[n*j.imgLen:(n+1)*j.imgLen])
			dy := j.dy[n*j.outLen : (n+1)*j.outLen]
			if j.fan {
				gemm.ParallelVirtualB(ws, 1, dy, pk, 1, partial, j.filters, j.rows, j.cols)
			} else {
				gemm.BlockedVirtualB(ws, 1, dy, pk, 1, partial, j.filters, j.rows, j.cols)
			}
		}
	}
	im2col.PutPacker(pk)
}

var unrollBwdFilterPool = par.NewJobPool[unrollBwdFilterJob]()

// UnrollBackwardFilter computes dw = Σ_n dy_n · col_nᵀ. The batch is
// split into one chunk per worker; each chunk accumulates into a
// private arena-carved partial and the partials are reduced serially
// in chunk order, so no worker writes shared state and the sum does
// not depend on which worker took which chunk. When there are fewer
// chunks than GOMAXPROCS (at any batch smaller than GOMAXPROCS, where
// each chunk is one image), each chunk's GEMMs fan out over the pool as
// well, under the same rule as UnrollForward.
func UnrollBackwardFilter(ws *workspace.Arena, cfg Config, x, dy, dw *tensor.Tensor) {
	checkShapes(cfg, x, dw, dy)
	ws.Reset()
	g := cfg.geom()
	per := (cfg.Batch + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	chunks := (cfg.Batch + per - 1) / per
	wLen := cfg.Filters * g.ColRows()
	partials := ws.Float32(chunks * wLen)
	j := unrollBwdFilterPool.Get()
	j.Reset(chunks)
	j.g, j.rows, j.cols = g, g.ColRows(), g.ColCols()
	j.imgLen = cfg.Channels * cfg.Input * cfg.Input
	j.outLen = cfg.Filters * j.cols
	j.filters, j.wLen = cfg.Filters, wLen
	j.batch, j.per, j.fan = cfg.Batch, per, fanGEMM(chunks)
	j.x, j.dy, j.partials = x.Data, dy.Data, partials
	j.kids = ws.Children(j.Slots())
	par.ForEachSlot(&j.Span, j)
	ws.Level()
	j.x, j.dy, j.partials, j.kids = nil, nil, nil, nil
	unrollBwdFilterPool.Put(j)
	clear(dw.Data)
	for ci := 0; ci < chunks; ci++ {
		for i, v := range partials[ci*wLen : (ci+1)*wLen] {
			dw.Data[i] += v
		}
	}
}
