package conv

import (
	"fmt"

	"gpucnn/internal/fft"
	"gpucnn/internal/gemm"
	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// FFTPlanSize returns the per-axis transform size used by the FFT
// strategy for a config: the padded input extent rounded up to a power
// of two. This rounding is what produces the step-function memory
// profile of fbfft in the paper's Figure 5.
func FFTPlanSize(cfg Config) int {
	return fft.NextPow2(cfg.Input + 2*cfg.Pad)
}

func fftCheckStride(cfg Config) {
	if cfg.Stride != 1 {
		panic(fmt.Sprintf("conv: FFT strategy requires stride 1, got %d (config %v)", cfg.Stride, cfg))
	}
}

// forwardPlane transforms one side×side real plane, zero-padded by pad
// on every side, into grid. buf holds the padded plane; only its
// interior is written, so a zeroed buf keeps its border across calls.
func forwardPlane(plan *fft.Plan2D, plane []float32, side, pad int, buf []float32, grid, scratch []complex64) {
	if pad > 0 {
		ip := side + 2*pad
		for r := 0; r < side; r++ {
			copy(buf[(r+pad)*ip+pad:][:side], plane[r*side:][:side])
		}
		plane, side = buf, ip
	}
	plan.ForwardHalf(plane[:side*side], side, side, grid, scratch)
}

// padLen is the padded-plane buffer a slot needs for side×side planes.
func padLen(side, pad int) int {
	if pad == 0 {
		return 0
	}
	return (side + 2*pad) * (side + 2*pad)
}

// fftPlaneJob FFTs real side×side planes (stored flat in src, each
// zero-padded by pad) into flat half-spectrum grids in dst; pooled for
// allocation-free dispatch.
type fftPlaneJob struct {
	par.Span
	plan           *fft.Plan2D
	side, pad, nn  int
	src, pads      []float32
	dst, scratches []complex64
}

func (j *fftPlaneJob) Run(slot int) {
	n, pl := j.plan.N(), padLen(j.side, j.pad)
	scratch, buf := j.scratches[slot*n:(slot+1)*n], j.pads[slot*pl:(slot+1)*pl]
	for i, ok := j.Claim(); ok; i, ok = j.Claim() {
		plane := j.src[i*j.side*j.side : (i+1)*j.side*j.side]
		forwardPlane(j.plan, plane, j.side, j.pad, buf, j.dst[i*j.nn:(i+1)*j.nn], scratch)
	}
}

var fftPlanePool = par.NewJobPool[fftPlaneJob]()

// transformPlanes FFTs count side×side planes of src, each zero-padded
// by pad, into the first count grids of dst, carving per-slot scratch
// from the pass's arena ws.
func transformPlanes(plan *fft.Plan2D, src []float32, count, side, pad int, dst []complex64, ws *workspace.Arena) {
	j := fftPlanePool.Get()
	j.Reset(count)
	j.plan, j.side, j.pad, j.nn = plan, side, pad, plan.Bins()
	j.src, j.dst = src, dst
	j.scratches = ws.Complex64Uninit(j.Slots() * plan.N())
	j.pads = ws.Float32(j.Slots() * padLen(side, pad))
	par.ForEachSlot(&j.Span, j)
	j.src, j.dst, j.scratches, j.pads = nil, nil, nil, nil
	fftPlanePool.Put(j)
}

// fftFwdJob computes images' outputs: a worker transforms each image's
// channel planes into its slot's grids (so the live grid footprint
// stays at workers×C grids, not batch×C) and reduces them against the
// shared pre-transformed filter spectra.
type fftFwdJob struct {
	par.Span
	cfg        Config
	plan       *fft.Plan2D
	nn, o      int
	x, y, pads []float32
	wgrids     []complex64
	scratches  []complex64
}

func (j *fftFwdJob) Run(slot int) {
	cfg, nn, o := j.cfg, j.nn, j.o
	c := cfg.Channels
	planeLen, pl := cfg.Input*cfg.Input, padLen(cfg.Input, cfg.Pad)
	slotLen := (c+1)*nn + j.plan.N()
	own, buf := j.scratches[slot*slotLen:(slot+1)*slotLen], j.pads[slot*pl:(slot+1)*pl]
	xg, acc, scratch := own[:c*nn], own[c*nn:(c+1)*nn], own[(c+1)*nn:]
	for bi, ok := j.Claim(); ok; bi, ok = j.Claim() {
		for ch := 0; ch < c; ch++ {
			plane := j.x[(bi*c+ch)*planeLen : (bi*c+ch+1)*planeLen]
			forwardPlane(j.plan, plane, cfg.Input, cfg.Pad, buf, xg[ch*nn:(ch+1)*nn], scratch)
		}
		for f := 0; f < cfg.Filters; f++ {
			clear(acc)
			for ch := 0; ch < c; ch++ {
				gemm.CMulAccPointwise(acc, xg[ch*nn:(ch+1)*nn], j.wgrids[(f*c+ch)*nn:(f*c+ch+1)*nn], true)
			}
			j.plan.InverseHalf(acc, j.y[(bi*cfg.Filters+f)*o*o:(bi*cfg.Filters+f+1)*o*o], o, o, 0, 0, scratch)
		}
	}
}

var fftFwdPool = par.NewJobPool[fftFwdJob]()

// FFTForward computes the convolution in the frequency domain:
// transform inputs and filters, multiply input spectra with conjugated
// filter spectra (correlation form), accumulate over channels, inverse
// transform, crop the valid o×o region. Requires stride 1. Every
// spectrum and per-worker scratch slot is carved from ws, which the
// pass resets.
func FFTForward(ws *workspace.Arena, cfg Config, x, w, y *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, x, w, y)
	plan := fft.Plan2DFor(FFTPlanSize(cfg))
	nn := plan.Bins()
	ws.Reset()
	wgrids := ws.Complex64Uninit(cfg.Filters * cfg.Channels * nn)
	transformPlanes(plan, w.Data, cfg.Filters*cfg.Channels, cfg.Kernel, 0, wgrids, ws)
	j := fftFwdPool.Get()
	j.Reset(cfg.Batch)
	j.cfg, j.plan, j.nn, j.o = cfg, plan, nn, cfg.Out()
	j.scratches = ws.Complex64Uninit(j.Slots() * ((cfg.Channels+1)*nn + plan.N()))
	j.pads = ws.Float32(j.Slots() * padLen(cfg.Input, cfg.Pad))
	j.x, j.wgrids, j.y = x.Data, wgrids, y.Data
	par.ForEachSlot(&j.Span, j)
	j.x, j.wgrids, j.y, j.scratches, j.pads = nil, nil, nil, nil, nil
	fftFwdPool.Put(j)
}

// fftBwdDataJob computes images' input gradients from pre-transformed
// output-gradient and filter spectra.
type fftBwdDataJob struct {
	par.Span
	cfg       Config
	plan      *fft.Plan2D
	nn        int
	dygrids   []complex64
	wgrids    []complex64
	scratches []complex64
	dx        []float32
}

func (j *fftBwdDataJob) Run(slot int) {
	cfg, nn := j.cfg, j.nn
	i := cfg.Input
	slotLen := nn + j.plan.N()
	own := j.scratches[slot*slotLen : (slot+1)*slotLen]
	acc, scratch := own[:nn], own[nn:]
	for bi, ok := j.Claim(); ok; bi, ok = j.Claim() {
		dyg := j.dygrids[bi*cfg.Filters*nn:]
		for c := 0; c < cfg.Channels; c++ {
			clear(acc)
			for f := 0; f < cfg.Filters; f++ {
				gemm.CMulAccPointwise(acc, dyg[f*nn:(f+1)*nn], j.wgrids[(f*cfg.Channels+c)*nn:(f*cfg.Channels+c+1)*nn], false)
			}
			j.plan.InverseHalf(acc, j.dx[(bi*cfg.Channels+c)*i*i:(bi*cfg.Channels+c+1)*i*i], i, i, cfg.Pad, cfg.Pad, scratch)
		}
	}
}

var fftBwdDataPool = par.NewJobPool[fftBwdDataJob]()

// FFTBackwardData computes dx in the frequency domain: the gradient is
// the full (non-conjugated) product of output-gradient spectra with
// filter spectra, summed over filters. Requires stride 1.
func FFTBackwardData(ws *workspace.Arena, cfg Config, dy, w, dx *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, dx, w, dy)
	plan := fft.Plan2DFor(FFTPlanSize(cfg))
	nn := plan.Bins()
	ws.Reset()
	wgrids := ws.Complex64Uninit(cfg.Filters * cfg.Channels * nn)
	transformPlanes(plan, w.Data, cfg.Filters*cfg.Channels, cfg.Kernel, 0, wgrids, ws)
	dygrids := ws.Complex64Uninit(cfg.Batch * cfg.Filters * nn)
	transformPlanes(plan, dy.Data, cfg.Batch*cfg.Filters, cfg.Out(), 0, dygrids, ws)
	j := fftBwdDataPool.Get()
	j.Reset(cfg.Batch)
	j.cfg, j.plan, j.nn = cfg, plan, nn
	j.scratches = ws.Complex64Uninit(j.Slots() * (nn + plan.N()))
	j.dygrids, j.wgrids, j.dx = dygrids, wgrids, dx.Data
	par.ForEachSlot(&j.Span, j)
	j.dygrids, j.wgrids, j.dx, j.scratches = nil, nil, nil, nil
	fftBwdDataPool.Put(j)
}

// fftBwdFilterJob reduces (filter, channel) pairs' gradient spectra
// over the batch.
type fftBwdFilterJob struct {
	par.Span
	cfg       Config
	plan      *fft.Plan2D
	nn        int
	xgrids    []complex64
	dygrids   []complex64
	scratches []complex64
	dw        []float32
}

func (j *fftBwdFilterJob) Run(slot int) {
	cfg, nn := j.cfg, j.nn
	k := cfg.Kernel
	slotLen := nn + j.plan.N()
	own := j.scratches[slot*slotLen : (slot+1)*slotLen]
	acc, scratch := own[:nn], own[nn:]
	for idx, ok := j.Claim(); ok; idx, ok = j.Claim() {
		f, c := idx/cfg.Channels, idx%cfg.Channels
		clear(acc)
		for bi := 0; bi < cfg.Batch; bi++ {
			gemm.CMulAccPointwise(acc, j.xgrids[(bi*cfg.Channels+c)*nn:(bi*cfg.Channels+c+1)*nn],
				j.dygrids[(bi*cfg.Filters+f)*nn:(bi*cfg.Filters+f+1)*nn], true)
		}
		j.plan.InverseHalf(acc, j.dw[idx*k*k:(idx+1)*k*k], k, k, 0, 0, scratch)
	}
}

var fftBwdFilterPool = par.NewJobPool[fftBwdFilterJob]()

// FFTBackwardFilter computes dw in the frequency domain: for each
// (filter, channel) pair the gradient spectrum is Σ_batch X·conj(DY),
// inverse-transformed and cropped to k×k. Requires stride 1.
func FFTBackwardFilter(ws *workspace.Arena, cfg Config, x, dy, dw *tensor.Tensor) {
	fftCheckStride(cfg)
	checkShapes(cfg, x, dw, dy)
	plan := fft.Plan2DFor(FFTPlanSize(cfg))
	nn := plan.Bins()
	ws.Reset()
	// Transform all activations and gradients up front; the per-(f,c)
	// reduction below then reads them without synchronisation.
	xgrids := ws.Complex64Uninit(cfg.Batch * cfg.Channels * nn)
	transformPlanes(plan, x.Data, cfg.Batch*cfg.Channels, cfg.Input, cfg.Pad, xgrids, ws)
	dygrids := ws.Complex64Uninit(cfg.Batch * cfg.Filters * nn)
	transformPlanes(plan, dy.Data, cfg.Batch*cfg.Filters, cfg.Out(), 0, dygrids, ws)
	j := fftBwdFilterPool.Get()
	j.Reset(cfg.Filters * cfg.Channels)
	j.cfg, j.plan, j.nn = cfg, plan, nn
	j.scratches = ws.Complex64Uninit(j.Slots() * (nn + plan.N()))
	j.xgrids, j.dygrids, j.dw = xgrids, dygrids, dw.Data
	par.ForEachSlot(&j.Span, j)
	j.xgrids, j.dygrids, j.dw, j.scratches = nil, nil, nil, nil
	fftBwdFilterPool.Put(j)
}
