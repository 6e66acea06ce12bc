package nn

import "rog/internal/tensor"

// SGD implements stochastic gradient descent with classical momentum:
//
//	v ← µ·v + g;  w ← w − η·v
//
// Following the paper's implementation section, the distributed layers apply
// updates per parameter row (ROG pulls individual averaged rows from the
// server), so besides the whole-model Step the optimizer exposes ApplyRow
// with a per-row momentum buffer. Block-wise momentum as in the 1-bit SGD
// paper [22] falls out naturally: each row is a block.
type SGD struct {
	LR       float64
	Momentum float64
	velocity []*tensor.Matrix // lazily sized to the model
}

// NewSGD returns an optimizer with the given learning rate and momentum
// coefficient (0 disables momentum).
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

func (o *SGD) ensureVelocity(params []*tensor.Matrix) {
	if len(o.velocity) == len(params) {
		return
	}
	o.velocity = make([]*tensor.Matrix, len(params))
	for i, p := range params {
		o.velocity[i] = tensor.New(p.Rows, p.Cols)
	}
}

// Step applies one update to every parameter from the matching gradient.
func (o *SGD) Step(params, grads []*tensor.Matrix) {
	if len(params) != len(grads) {
		panic("nn: SGD.Step params/grads length mismatch")
	}
	o.ensureVelocity(params)
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	for i, p := range params {
		g := grads[i]
		v := o.velocity[i]
		for j := range p.Data {
			v.Data[j] = mu*v.Data[j] + g.Data[j]
			p.Data[j] -= lr * v.Data[j]
		}
	}
}

// ApplyUnit updates the contiguous span of parameter paramIdx's flat Data
// that starts at offset from the averaged gradient vals — one
// synchronization unit of any granularity. Whole rows go through ApplyRow,
// so momentum stays per row; a partial row (element granularity) takes the
// plain step w ← w − η·g, bypassing momentum.
func (o *SGD) ApplyUnit(params []*tensor.Matrix, paramIdx, offset int, vals []float32) {
	p := params[paramIdx]
	lr := float32(o.LR)
	for i := 0; i < len(vals); {
		off := offset + i
		row := off / p.Cols
		width := min(p.Cols-(off-row*p.Cols), len(vals)-i)
		if src := vals[i : i+width]; width == p.Cols {
			o.ApplyRow(params, paramIdx, row, src)
		} else {
			for j, g := range src {
				p.Data[off+j] -= lr * g
			}
		}
		i += width
	}
}

// ApplyRow updates a single row of parameter matrix p (index paramIdx in the
// model's parameter list) from the averaged gradient row grad.
func (o *SGD) ApplyRow(params []*tensor.Matrix, paramIdx, row int, grad []float32) {
	o.ensureVelocity(params)
	p := params[paramIdx]
	v := o.velocity[paramIdx]
	if len(grad) != p.Cols {
		panic("nn: ApplyRow gradient width mismatch")
	}
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	pr := p.Row(row)
	vr := v.Row(row)
	for j, g := range grad {
		vr[j] = mu*vr[j] + g
		pr[j] -= lr * vr[j]
	}
}
