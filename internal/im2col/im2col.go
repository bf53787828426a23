// Package im2col implements the unrolling transforms behind
// unrolling-based convolution (Caffe, Torch-cunn, Theano-CorrMM, cuDNN).
// Im2col flattens every receptive field of an input image into a column
// of a matrix so convolution becomes a single GEMM; col2im scatters a
// column matrix back, accumulating where receptive fields overlap (the
// backward-data path).
//
// The kernels on the engines' hot paths (PanelPacker, Col2im) work in
// runs: for one kernel tap and one output row, the output columns whose
// input pixel lies inside the image form a single interval, found once
// for any stride. The packers clear their panel and copy each interval
// in as a whole run; Col2im adds each run back and skips the padding.
// Im2col keeps the plain per-element loop; it is the reference the
// packers are tested against.
package im2col

import "fmt"

// Geom describes the geometry of one unrolling: a single image of
// C×H×W convolved with kernels of Kh×Kw at the given stride and padding.
type Geom struct {
	C, H, W    int // input channels, height, width
	KH, KW     int // kernel extents
	StrideH    int
	StrideW    int
	PadH, PadW int
}

// OutH returns the output height.
func (g Geom) OutH() int { return (g.H+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g Geom) OutW() int { return (g.W+2*g.PadW-g.KW)/g.StrideW + 1 }

// ColRows returns the number of rows of the unrolled matrix (C·KH·KW).
func (g Geom) ColRows() int { return g.C * g.KH * g.KW }

// ColCols returns the number of columns of the unrolled matrix
// (OutH·OutW).
func (g Geom) ColCols() int { return g.OutH() * g.OutW() }

// ColBytes returns the size in bytes of the unrolled buffer for one
// image — this is the extra workspace unrolling engines pay for.
func (g Geom) ColBytes() int64 { return int64(g.ColRows()) * int64(g.ColCols()) * 4 }

// Validate reports an error for degenerate geometries.
func (g Geom) Validate() error {
	if g.C <= 0 || g.H <= 0 || g.W <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("im2col: non-positive dimension in %+v", g)
	}
	if g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("im2col: non-positive stride in %+v", g)
	}
	if g.PadH < 0 || g.PadW < 0 {
		return fmt.Errorf("im2col: negative padding in %+v", g)
	}
	if g.H+2*g.PadH < g.KH || g.W+2*g.PadW < g.KW {
		return fmt.Errorf("im2col: kernel %dx%d larger than padded input %dx%d",
			g.KH, g.KW, g.H+2*g.PadH, g.W+2*g.PadW)
	}
	return nil
}

// Im2col unrolls img (C×H×W row-major) into col, which must have
// ColRows()×ColCols() elements. Row r of col corresponds to one
// (channel, kernel-row, kernel-col) triple; column c corresponds to one
// output position.
//
//hot:noalloc
func Im2col(g Geom, img []float32, col []float32) {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	if len(img) < g.C*g.H*g.W || len(col) < g.ColRows()*cols {
		//lint:ignore hotalloc the failed-precondition panic may format its message; the hot loop below stays clean
		panic(fmt.Sprintf("im2col: buffers too small for %+v", g))
	}
	row := 0
	for c := 0; c < g.C; c++ {
		chanBase := c * g.H * g.W
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				dst := col[row*cols:]
				idx := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH + kh - g.PadH
					if iy < 0 || iy >= g.H {
						for ox := 0; ox < ow; ox++ {
							dst[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chanBase + iy*g.W
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW + kw - g.PadW
						if ix < 0 || ix >= g.W {
							dst[idx] = 0
						} else {
							dst[idx] = img[rowBase+ix]
						}
						idx++
					}
				}
				row++
			}
		}
	}
}

// span is the interval [lo, hi) of output positions along one axis
// whose input coordinate o·stride + k − pad falls inside the image for
// one kernel offset k; positions outside it read padding.
type span struct{ lo, hi int }

// validSpan returns the span of kernel offset k over out output
// positions of an axis with in input pixels.
func validSpan(k, pad, stride, in, out int) span {
	off := k - pad
	var lo, hi int
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if in > off {
		hi = (in - off + stride - 1) / stride
	}
	lo = min(lo, out)
	return span{lo, max(lo, min(hi, out))}
}

// Col2im scatters col (ColRows()×ColCols()) back into img (C×H×W),
// accumulating overlapping contributions. img is zeroed first. Each
// (tap, output row) adds its in-image run in one pass; a pixel still
// receives its taps in row order of col, so the sums are the same bits
// as an element-by-element scatter.
//
//hot:noalloc
func Col2im(g Geom, col []float32, img []float32) {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	if len(img) < g.C*g.H*g.W || len(col) < g.ColRows()*cols {
		//lint:ignore hotalloc the failed-precondition panic may format its message; the hot loop below stays clean
		panic(fmt.Sprintf("im2col: buffers too small for %+v", g))
	}
	clear(img[:g.C*g.H*g.W])
	rowStep := g.StrideH * g.W
	src := 0
	for c := 0; c < g.C; c++ {
		for kh := 0; kh < g.KH; kh++ {
			ys := validSpan(kh, g.PadH, g.StrideH, g.H, oh)
			for kw := 0; kw < g.KW; kw++ {
				xs := validSpan(kw, g.PadW, g.StrideW, g.W, ow)
				if n := xs.hi - xs.lo; n > 0 {
					di := c*g.H*g.W + (ys.lo*g.StrideH+kh-g.PadH)*g.W + xs.lo*g.StrideW + kw - g.PadW
					for si := src + ys.lo*ow + xs.lo; si < src+ys.hi*ow; si += ow {
						addRun(img[di:], g.StrideW, col[si:si+n])
						di += rowStep
					}
				}
				src += cols
			}
		}
	}
}

// addRun adds s[i] to d[i·ds] for every i.
//
//hot:noalloc
func addRun(d []float32, ds int, s []float32) {
	if ds == 1 {
		d = d[:len(s)]
		for i, v := range s {
			d[i] += v
		}
		return
	}
	for i, v := range s {
		d[i*ds] += v
	}
}
