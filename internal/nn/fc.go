package nn

import (
	"fmt"
	"math"

	"gpucnn/internal/gemm"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// FC is a fully-connected (inner-product) layer. Input of any rank is
// flattened to (batch, features).
type FC struct {
	name string
	Out  int

	weight *Param // (Out, In)
	bias   *Param // (Out)
	lastX  *Value
	outV   Value          // held forward Value
	out    *tensor.Tensor // held forward output
	inDim  int
	inited bool
	ws     workspace.Arena // GEMM packing scratch, reset per GEMM
}

// NewFC builds a fully-connected layer with the given output width.
func NewFC(name string, out int) *FC { return &FC{name: name, Out: out} }

// Name returns the layer name.
func (l *FC) Name() string { return l.name }

// Kind returns KindFC.
func (l *FC) Kind() Kind { return KindFC }

func (l *FC) inFeatures(in tensor.Shape) int {
	if len(in) < 2 {
		panic(fmt.Sprintf("nn: fc %s requires at least rank-2 input, got %v", l.name, in))
	}
	features := 1
	for _, d := range in[1:] {
		features *= d
	}
	return features
}

// OutShape flattens to (batch, Out).
func (l *FC) OutShape(in tensor.Shape) tensor.Shape {
	l.inFeatures(in)
	return tensor.Shape{in[0], l.Out}
}

func (l *FC) ensureParams(in int) {
	if l.weight != nil {
		if l.inDim != in {
			panic(fmt.Sprintf("nn: fc %s input width changed from %d to %d", l.name, l.inDim, in))
		}
		return
	}
	l.inDim = in
	l.weight = NewParam(l.name+".weight", l.Out, in)
	l.bias = NewParam(l.name+".bias", l.Out)
}

// initWeights fills the weights on first real use.
func (l *FC) initWeights() {
	if l.inited {
		return
	}
	l.inited = true
	sigma := float32(math.Sqrt(2 / float64(l.inDim)))
	l.weight.W.FillNormal(tensor.NewRNG(uint64(len(l.name))*0x9E3779B9+13), sigma)
}

// Forward computes y = x·Wᵀ + b. The returned Value is held, like its
// data: valid until the next Forward.
func (l *FC) Forward(ctx *Context, x *Value) *Value {
	batch := x.Shape[0]
	in := l.inFeatures(x.Shape)
	l.ensureParams(in)
	l.lastX = x
	out := holdValue(&l.outV, tensor.Shape{batch, l.Out})
	ctx.timed(KindFC, func() {
		if x.Real() {
			l.initWeights()
			out.Data = hold(&l.out, out.Shape)
			// y (batch×out) = x (batch×in) · Wᵀ (in×out), x read flat.
			l.ws.Reset()
			gemm.ParallelNT(&l.ws, 1, x.Data.Data, l.weight.W.Data, 0, out.Data.Data, batch, l.Out, in)
			for bi := 0; bi < batch; bi++ {
				row := out.Data.Data[bi*l.Out:]
				for j := 0; j < l.Out; j++ {
					row[j] += l.bias.W.Data[j]
				}
			}
		}
		ctx.launch(fcGemmSpec(l.Out, batch, in))
		ctx.launch(elementwiseSpec("add_bias", batch*l.Out, 8))
	})
	return out
}

// Backward computes dx, dW and db.
func (l *FC) Backward(ctx *Context, dy *Value) *Value {
	batch := l.lastX.Shape[0]
	in := l.inDim
	out := &Value{Shape: l.lastX.Shape.Clone()}
	ctx.timed(KindFC, func() {
		if dy.Real() && l.lastX.Real() {
			// db = column sums of dy.
			for bi := 0; bi < batch; bi++ {
				row := dy.Data.Data[bi*l.Out:]
				for j := 0; j < l.Out; j++ {
					l.bias.Grad.Data[j] += row[j]
				}
			}
			// dW (out×in) += dyᵀ (out×batch) · x (batch×in)
			flat := l.lastX.Data.Reshape(batch, in)
			l.ws.Reset()
			gemm.TN(&l.ws, 1, dy.Data.Data, flat.Data, 1, l.weight.Grad.Data, l.Out, in, batch)
			// dx (batch×in) = dy (batch×out) · W (out×in)
			out.Data = tensor.New(out.Shape...)
			l.ws.Reset()
			gemm.ParallelIn(&l.ws, 1, dy.Data.Data, l.weight.W.Data, 0, out.Data.Reshape(batch, in).Data, batch, in, l.Out)
		}
		ctx.launch(fcGemmSpec(in, batch, l.Out)) // dx
		ctx.launch(fcGemmSpec(l.Out, in, batch)) // dW
		ctx.launch(elementwiseSpec("bias_grad", batch*l.Out, 4))
	})
	return out
}

// Params returns weight and bias.
func (l *FC) Params() []*Param {
	if l.weight == nil {
		return nil
	}
	return []*Param{l.weight, l.bias}
}
