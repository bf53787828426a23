package nn

import (
	"fmt"
	"math"

	"gpucnn/internal/tensor"
)

// SoftmaxLoss combines a softmax over the class axis with the negative
// log-likelihood loss. It terminates the network: Forward returns the
// class probabilities, Loss computes the scalar loss against labels,
// and Backward seeds the gradient (softmax − one-hot)/batch.
type SoftmaxLoss struct {
	name string

	fwd    held           // forward output
	bwd    held           // the gradient seed
	probs  *tensor.Tensor // fwd's data after a real Forward, nil before
	labels []int
}

// NewSoftmaxLoss builds the loss layer.
func NewSoftmaxLoss(name string) *SoftmaxLoss { return &SoftmaxLoss{name: name} }

// Name returns the layer name.
func (l *SoftmaxLoss) Name() string { return l.name }

// Kind returns KindLoss.
func (l *SoftmaxLoss) Kind() Kind { return KindLoss }

// OutShape is the identity (probabilities per class).
func (l *SoftmaxLoss) OutShape(in tensor.Shape) tensor.Shape {
	l.checkRank2(in)
	return in.Clone()
}

// checkRank2 panics unless in is (batch, classes).
func (l *SoftmaxLoss) checkRank2(in tensor.Shape) {
	if len(in) != 2 {
		panic(fmt.Sprintf("nn: softmax %s requires (batch, classes) input, got %v", l.name, in))
	}
}

// Forward computes row-wise softmax (numerically stabilised).
func (l *SoftmaxLoss) Forward(ctx *Context, x *Value) *Value {
	l.checkRank2(x.Shape)
	out := l.fwd.at(x.Shape, x.Real())
	ctx.timed(KindLoss, func() {
		if x.Real() {
			batch, classes := x.Shape[0], x.Shape[1]
			for bi := 0; bi < batch; bi++ {
				row := x.Data.Data[bi*classes : (bi+1)*classes]
				dst := out.Data.Data[bi*classes : (bi+1)*classes]
				maxV := row[0]
				for _, v := range row {
					if v > maxV {
						maxV = v
					}
				}
				var sum float64
				for i, v := range row {
					e := math.Exp(float64(v - maxV))
					dst[i] = float32(e)
					sum += e
				}
				inv := float32(1 / sum)
				for i := range dst {
					dst[i] *= inv
				}
			}
			l.probs = out.Data
		}
		ctx.launch(elementwiseSpec("softmax", x.Elems(), 12))
	})
	return out
}

// Loss returns the mean NLL over the batch for the last Forward, plus
// the top-1 accuracy.
func (l *SoftmaxLoss) Loss(labels []int) (loss float64, accuracy float64) {
	if l.probs == nil {
		panic("nn: Loss called before a real Forward pass")
	}
	batch, classes := l.probs.Dim(0), l.probs.Dim(1)
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: %d labels for batch %d", len(labels), batch))
	}
	l.labels = labels
	correct := 0
	for bi, label := range labels {
		row := l.probs.Data[bi*classes : (bi+1)*classes]
		p := float64(row[label])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		argmax := 0
		for i, v := range row {
			if v > row[argmax] {
				argmax = i
			}
		}
		if argmax == label {
			correct++
		}
	}
	return loss / float64(batch), float64(correct) / float64(batch)
}

// Backward seeds the network gradient: (probs − one-hot) / batch. The
// dy argument is ignored (the loss is the terminal node).
func (l *SoftmaxLoss) Backward(ctx *Context, dy *Value) *Value {
	data := l.probs != nil && l.labels != nil
	out := l.bwd.at(dy.Shape, data)
	ctx.timed(KindLoss, func() {
		if data {
			batch, classes := l.probs.Dim(0), l.probs.Dim(1)
			copy(out.Data.Data, l.probs.Data)
			inv := float32(1.0 / float64(batch))
			for bi, label := range l.labels {
				row := out.Data.Data[bi*classes : (bi+1)*classes]
				row[label] -= 1
				for i := range row {
					row[i] *= inv
				}
			}
		}
		ctx.launch(elementwiseSpec("softmax_bwd", dy.Elems(), 8))
	})
	return out
}

// Params returns nil; the loss has no parameters.
func (l *SoftmaxLoss) Params() []*Param { return nil }
