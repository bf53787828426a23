package nn

import (
	"fmt"

	"gpucnn/internal/gemm"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// FC is a fully-connected (inner-product) layer. Input of any rank is
// flattened to (batch, features).
type FC struct {
	name string
	Out  int

	weight *Param   // (Out, In)
	bias   *Param   // (Out)
	params []*Param // weight and bias, once declared
	lastX  *Value
	fwd    held            // forward output
	bwd    held            // input gradient
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
	if l.weight == nil {
		l.weight = NewParam(l.name+".weight", heNormal(uint64(len(l.name))*0x9E3779B9+13, in), l.Out, in)
		l.bias = NewParam(l.name+".bias", nil, l.Out)
		l.params = []*Param{l.weight, l.bias}
	} else if l.weight.Shape[1] != in {
		panic(fmt.Sprintf("nn: fc %s input width changed from %d to %d", l.name, l.weight.Shape[1], in))
	}
}

// Forward computes y = x·Wᵀ + b.
func (l *FC) Forward(ctx *Context, x *Value) *Value {
	batch := x.Shape[0]
	in := l.inFeatures(x.Shape)
	l.ensureParams(in)
	l.lastX = x
	out := l.fwd.at(tensor.Shape{batch, l.Out}, x.Real())
	ctx.timed(KindFC, func() {
		if x.Real() {
			bias := l.bias.Materialise().W.Data
			// y (batch×out) = x (batch×in) · Wᵀ (in×out), x read flat.
			l.ws.Reset()
			gemm.ParallelNT(&l.ws, 1, x.Data.Data, l.weight.Materialise().W.Data, 0, out.Data.Data, batch, l.Out, in)
			for bi := 0; bi < batch; bi++ {
				row := out.Data.Data[bi*l.Out:]
				for j := 0; j < l.Out; j++ {
					row[j] += bias[j]
				}
			}
		}
		ctx.launch(fcGemmSpec(l.Out, batch, in))
		ctx.launch(elementwiseSpec("add_bias", batch*l.Out, 8))
	})
	return out
}

// Backward computes dx, dW and db. The GEMM overwrites dx (beta 0), so
// the held dx needs no clearing.
func (l *FC) Backward(ctx *Context, dy *Value) *Value {
	batch := l.lastX.Shape[0]
	in := l.weight.Shape[1]
	data := dy.Real() && l.lastX.Real()
	dx := l.bwd.at(l.lastX.Shape, data)
	ctx.timed(KindFC, func() {
		if data {
			// db = column sums of dy.
			db := l.bias.grad().Data
			for bi := 0; bi < batch; bi++ {
				row := dy.Data.Data[bi*l.Out:]
				for j := 0; j < l.Out; j++ {
					db[j] += row[j]
				}
			}
			// dW (out×in) += dyᵀ (out×batch) · x (batch×in), x read flat.
			l.ws.Reset()
			gemm.TN(&l.ws, 1, dy.Data.Data, l.lastX.Data.Data, 1, l.weight.grad().Data, l.Out, in, batch)
			// dx (batch×in) = dy (batch×out) · W (out×in)
			l.ws.Reset()
			gemm.ParallelIn(&l.ws, 1, dy.Data.Data, l.weight.W.Data, 0, dx.Data.Data, batch, in, l.Out)
		}
		ctx.launch(fcGemmSpec(in, batch, l.Out)) // dx
		ctx.launch(fcGemmSpec(l.Out, in, batch)) // dW
		ctx.launch(elementwiseSpec("bias_grad", batch*l.Out, 4))
	})
	return dx
}

// Params returns weight and bias, or nil before the first pass.
func (l *FC) Params() []*Param { return l.params }
