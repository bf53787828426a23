package nn

// SGD is stochastic gradient descent with momentum and weight decay —
// the optimiser the surveyed frameworks trained with.
type SGD struct {
	LR       float32
	Momentum float32
	Decay    float32

	velocity map[*Param][]float32
}

// NewSGD builds an SGD optimiser.
func NewSGD(lr, momentum, decay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, Decay: decay, velocity: map[*Param][]float32{}}
}

// Step applies one update to every parameter and zeroes the gradients.
// It skips parameters without weights, and a nil Grad reads as zero, so
// weight decay and momentum still apply to a parameter no Backward has
// reached.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.W == nil {
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = make([]float32, p.Elems())
			s.velocity[p] = v
		}
		var grad []float32
		if p.Grad != nil {
			grad = p.Grad.Data
		}
		for i, w := range p.W.Data {
			var gi float32
			if grad != nil {
				gi = grad[i]
			}
			g := gi + s.Decay*w
			v[i] = s.Momentum*v[i] - s.LR*g
			p.W.Data[i] += v[i]
		}
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
}
