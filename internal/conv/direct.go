package conv

import (
	"fmt"

	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

func checkShapes(cfg Config, x, w, y *tensor.Tensor) {
	if !x.Shape().Equal(cfg.InputShape()) {
		panic(fmt.Sprintf("conv: input shape %v does not match config %v (%v)", x.Shape(), cfg, cfg.InputShape()))
	}
	if !w.Shape().Equal(cfg.FilterShape()) {
		panic(fmt.Sprintf("conv: filter shape %v does not match config %v (%v)", w.Shape(), cfg, cfg.FilterShape()))
	}
	if !y.Shape().Equal(cfg.OutputShape()) {
		panic(fmt.Sprintf("conv: output shape %v does not match config %v (%v)", y.Shape(), cfg, cfg.OutputShape()))
	}
}

// directFwdJob computes one (batch, filter) output plane by the
// definition; pooled for allocation-free dispatch.
type directFwdJob struct {
	cfg     Config
	x, w, y []float32
}

//hot:noalloc
func (j *directFwdJob) Run(job int) {
	cfg := j.cfg
	c, i := cfg.Channels, cfg.Input
	f, k, s, p, o := cfg.Filters, cfg.Kernel, cfg.Stride, cfg.Pad, cfg.Out()
	n, fi := job/f, job%f
	wBase := j.w[fi*c*k*k:]
	for oy := 0; oy < o; oy++ {
		for ox := 0; ox < o; ox++ {
			var acc float32
			for ci := 0; ci < c; ci++ {
				xChan := j.x[(n*c+ci)*i*i:]
				wChan := wBase[ci*k*k:]
				for kh := 0; kh < k; kh++ {
					iy := oy*s + kh - p
					if iy < 0 || iy >= i {
						continue
					}
					xRow := xChan[iy*i:]
					wRow := wChan[kh*k:]
					for kw := 0; kw < k; kw++ {
						ix := ox*s + kw - p
						if ix < 0 || ix >= i {
							continue
						}
						acc += xRow[ix] * wRow[kw]
					}
				}
			}
			j.y[((n*f+fi)*o+oy)*o+ox] = acc
		}
	}
}

var directFwdPool = par.NewJobPool[directFwdJob]()

// DirectForward computes y = x ⋆ w by the definition: each output
// element is the dot product of one receptive field with one filter.
// Work is distributed over (batch, filter) pairs.
func DirectForward(cfg Config, x, w, y *tensor.Tensor) {
	checkShapes(cfg, x, w, y)
	j := directFwdPool.Get()
	j.cfg, j.x, j.w, j.y = cfg, x.Data, w.Data, y.Data
	par.ForEachRunner(cfg.Batch*cfg.Filters, j)
	j.x, j.w, j.y = nil, nil, nil
	directFwdPool.Put(j)
}

// directBwdDataJob computes one (batch, channel) input-gradient plane.
type directBwdDataJob struct {
	cfg       Config
	dy, w, dx []float32
}

//hot:noalloc
func (j *directBwdDataJob) Run(job int) {
	cfg := j.cfg
	c, i := cfg.Channels, cfg.Input
	f, k, s, p, o := cfg.Filters, cfg.Kernel, cfg.Stride, cfg.Pad, cfg.Out()
	n, ci := job/c, job%c
	out := j.dx[(n*c+ci)*i*i : (n*c+ci+1)*i*i]
	clear(out)
	for fi := 0; fi < f; fi++ {
		dyMap := j.dy[(n*f+fi)*o*o:]
		wChan := j.w[(fi*c+ci)*k*k:]
		for oy := 0; oy < o; oy++ {
			dyRow := dyMap[oy*o:]
			for ox := 0; ox < o; ox++ {
				g := dyRow[ox]
				if g == 0 {
					continue
				}
				for kh := 0; kh < k; kh++ {
					iy := oy*s + kh - p
					if iy < 0 || iy >= i {
						continue
					}
					dxRow := out[iy*i:]
					wRow := wChan[kh*k:]
					for kw := 0; kw < k; kw++ {
						ix := ox*s + kw - p
						if ix < 0 || ix >= i {
							continue
						}
						dxRow[ix] += g * wRow[kw]
					}
				}
			}
		}
	}
}

var directBwdDataPool = par.NewJobPool[directBwdDataJob]()

// DirectBackwardData computes dx given dy and w: every input pixel
// gathers the contributions of all output positions whose receptive
// field covers it. Work is distributed over (batch, channel) pairs so
// each goroutine owns its dx slab.
func DirectBackwardData(cfg Config, dy, w, dx *tensor.Tensor) {
	checkShapes(cfg, dx, w, dy)
	j := directBwdDataPool.Get()
	j.cfg, j.dy, j.w, j.dx = cfg, dy.Data, w.Data, dx.Data
	par.ForEachRunner(cfg.Batch*cfg.Channels, j)
	j.dy, j.w, j.dx = nil, nil, nil
	directBwdDataPool.Put(j)
}

// directBwdFilterJob accumulates one filter's gradient over the batch.
type directBwdFilterJob struct {
	cfg       Config
	x, dy, dw []float32
}

//hot:noalloc
func (j *directBwdFilterJob) Run(fi int) {
	cfg := j.cfg
	b, c, i := cfg.Batch, cfg.Channels, cfg.Input
	f, k, s, p, o := cfg.Filters, cfg.Kernel, cfg.Stride, cfg.Pad, cfg.Out()
	wBase := j.dw[fi*c*k*k : (fi+1)*c*k*k]
	clear(wBase)
	for n := 0; n < b; n++ {
		dyMap := j.dy[(n*f+fi)*o*o:]
		for ci := 0; ci < c; ci++ {
			xChan := j.x[(n*c+ci)*i*i:]
			wChan := wBase[ci*k*k:]
			for oy := 0; oy < o; oy++ {
				dyRow := dyMap[oy*o:]
				for ox := 0; ox < o; ox++ {
					g := dyRow[ox]
					if g == 0 {
						continue
					}
					for kh := 0; kh < k; kh++ {
						iy := oy*s + kh - p
						if iy < 0 || iy >= i {
							continue
						}
						xRow := xChan[iy*i:]
						wRow := wChan[kh*k:]
						for kw := 0; kw < k; kw++ {
							ix := ox*s + kw - p
							if ix < 0 || ix >= i {
								continue
							}
							wRow[kw] += g * xRow[ix]
						}
					}
				}
			}
		}
	}
}

var directBwdFilterPool = par.NewJobPool[directBwdFilterJob]()

// DirectBackwardFilter computes dw given x and dy, accumulating over
// the batch. Work is distributed over filters so each goroutine owns
// its dw slab.
func DirectBackwardFilter(cfg Config, x, dy, dw *tensor.Tensor) {
	checkShapes(cfg, x, dw, dy)
	j := directBwdFilterPool.Get()
	j.cfg, j.x, j.dy, j.dw = cfg, x.Data, dy.Data, dw.Data
	par.ForEachRunner(cfg.Filters, j)
	j.x, j.dy, j.dw = nil, nil, nil
	directBwdFilterPool.Put(j)
}
