package nn

import (
	"fmt"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
)

// PoolMode selects max or average pooling.
type PoolMode int

// Pooling modes.
const (
	MaxPool PoolMode = iota
	AvgPool
)

// Pool is a spatial pooling layer.
type Pool struct {
	name   string
	Mode   PoolMode
	Window int
	Stride int
	Pad    int

	lastX  *Value
	out    *tensor.Tensor // held forward output
	argmax []int32        // held flat input index per output element (max mode)
}

// NewMaxPool builds a max-pooling layer.
func NewMaxPool(name string, window, stride, pad int) *Pool {
	return &Pool{name: name, Mode: MaxPool, Window: window, Stride: stride, Pad: pad}
}

// NewAvgPool builds an average-pooling layer.
func NewAvgPool(name string, window, stride, pad int) *Pool {
	return &Pool{name: name, Mode: AvgPool, Window: window, Stride: stride, Pad: pad}
}

// Name returns the layer name.
func (l *Pool) Name() string { return l.name }

// Kind returns KindPool.
func (l *Pool) Kind() Kind { return KindPool }

func (l *Pool) outHW(h int) int {
	o := (h+2*l.Pad-l.Window)/l.Stride + 1
	// Caffe-style ceil pooling keeps the last partial window.
	if (o-1)*l.Stride+l.Window < h+2*l.Pad {
		o++
	}
	return o
}

// OutShape computes the pooled NCHW shape.
func (l *Pool) OutShape(in tensor.Shape) tensor.Shape {
	if len(in) != 4 {
		panic(fmt.Sprintf("nn: pool %s requires NCHW input, got %v", l.name, in))
	}
	return tensor.Shape{in[0], in[1], l.outHW(in[2]), l.outHW(in[3])}
}

func (l *Pool) spec(name string, elemsIn, elemsOut int) gpusim.KernelSpec {
	bytes := float64(elemsIn+elemsOut) * 4
	return gpusim.KernelSpec{
		Name:             name,
		Grid:             gpusim.Dim3{X: (elemsOut + 255) / 256},
		Block:            gpusim.Dim3{X: 256},
		RegsPerThread:    24,
		FLOPs:            float64(elemsOut) * float64(l.Window*l.Window),
		GlobalLoadBytes:  bytes * 0.7,
		GlobalStoreBytes: bytes * 0.3,
		LoadTransPerReq:  1.4,
		StoreTransPerReq: 1.1,
		L2HitFrac:        0.5,
		ActiveThreadFrac: 0.98,
		ILP:              2,
		EfficiencyScale:  0.85,
	}
}

// Forward pools each window (max keeps argmax indices for backward).
func (l *Pool) Forward(ctx *Context, x *Value) *Value {
	n, c, h, w := checkRank4(x, "pool "+l.name)
	oh, ow := l.outHW(h), l.outHW(w)
	l.lastX = x
	out := &Value{Shape: tensor.Shape{n, c, oh, ow}}
	ctx.timed(KindPool, func() {
		if x.Real() {
			out.Data = hold(&l.out, out.Shape)
			argmax := holdSlice(&l.argmax, out.Elems())
			par.ForEach(n*c, func(j int) {
				src := x.Data.Data[j*h*w:]
				dst := out.Data.Data[j*oh*ow:]
				arg := argmax[j*oh*ow:]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						var acc float32
						var best int32 = -1
						count := 0
						first := true
						for ky := 0; ky < l.Window; ky++ {
							iy := oy*l.Stride + ky - l.Pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < l.Window; kx++ {
								ix := ox*l.Stride + kx - l.Pad
								if ix < 0 || ix >= w {
									continue
								}
								v := src[iy*w+ix]
								count++
								if l.Mode == MaxPool {
									if first || v > acc {
										acc = v
										best = int32(iy*w + ix)
										first = false
									}
								} else {
									acc += v
								}
							}
						}
						if l.Mode == AvgPool && count > 0 {
							acc /= float32(count)
						}
						dst[oy*ow+ox] = acc
						arg[oy*ow+ox] = best
					}
				}
			})
		}
		ctx.launch(l.spec("pool_fwd", x.Elems(), out.Elems()))
	})
	return out
}

// Backward scatters gradient to the max positions (or spreads it for
// average pooling).
func (l *Pool) Backward(ctx *Context, dy *Value) *Value {
	n, c, h, w := checkRank4(l.lastX, "pool "+l.name)
	oh, ow := l.outHW(h), l.outHW(w)
	out := &Value{Shape: l.lastX.Shape.Clone()}
	ctx.timed(KindPool, func() {
		if dy.Real() && l.lastX.Real() {
			out.Data = tensor.New(out.Shape...)
			par.ForEach(n*c, func(j int) {
				dst := out.Data.Data[j*h*w:]
				g := dy.Data.Data[j*oh*ow:]
				arg := l.argmax[j*oh*ow:]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						grad := g[oy*ow+ox]
						if l.Mode == MaxPool {
							if idx := arg[oy*ow+ox]; idx >= 0 {
								dst[idx] += grad
							}
							continue
						}
						// Average: spread over the valid window.
						count := 0
						for ky := 0; ky < l.Window; ky++ {
							iy := oy*l.Stride + ky - l.Pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < l.Window; kx++ {
								ix := ox*l.Stride + kx - l.Pad
								if ix >= 0 && ix < w {
									count++
								}
							}
						}
						if count == 0 {
							continue
						}
						share := grad / float32(count)
						for ky := 0; ky < l.Window; ky++ {
							iy := oy*l.Stride + ky - l.Pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < l.Window; kx++ {
								ix := ox*l.Stride + kx - l.Pad
								if ix >= 0 && ix < w {
									dst[iy*w+ix] += share
								}
							}
						}
					}
				}
			})
		}
		ctx.launch(l.spec("pool_bwd", l.lastX.Elems(), dy.Elems()))
	})
	return out
}

// Params returns nil; pooling has no parameters.
func (l *Pool) Params() []*Param { return nil }
