package tabnet

import (
	"math"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// The reference training step: the original allocating per-sample
// forward (forwardSample) and backward (backwardSample) passes, and Adam
// with the textbook bias-correction divisions. It is the oracle the parity
// tests and the reference training benchmark drive through the same
// nntrain loop as production training, in place of fastStep.

// referenceStep is the stepper for the reference path.
func referenceStep(m *Model) func(xs *linalg.Matrix, ys []float64, batch []int) {
	g := m.newGrads()
	opt := newScalarAdam(m.weights(), g.list(), m.Config.LearningRate)
	return func(xs *linalg.Matrix, ys []float64, batch []int) {
		opt.zeroGrad()
		inv := 1 / float64(len(batch))
		for _, i := range batch {
			var caches []stepCache
			pred := m.forwardSample(xs.Row(i), &caches)
			m.backwardSample(xs.Row(i), caches, (pred-ys[i])*inv, g)
		}
		opt.step()
	}
}

// scalarAdam is Adam as a per-element scalar loop, the baseline of the
// vectorized linalg.AdamStep that nntrain.Adam runs.
type scalarAdam struct {
	params, grads, m, v [][]float64
	lr                  float64
	t                   int
}

func newScalarAdam(params, grads [][]float64, lr float64) *scalarAdam {
	a := &scalarAdam{params: params, grads: grads, lr: lr}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

func (a *scalarAdam) zeroGrad() {
	for _, g := range a.grads {
		clear(g)
	}
}

func (a *scalarAdam) step() {
	a.t++
	b1, b2, eps := 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	for ti, w := range a.params {
		g, m, v := a.grads[ti], a.m[ti], a.v[ti]
		for i := range w {
			m[i] = b1*m[i] + (1-b1)*g[i]
			v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
			w[i] -= a.lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
		}
	}
}

// backward accumulates gradients into gw/gb and returns dL/dx.
func (d *dense) backward(x, gout, gw, gb []float64) []float64 {
	gin := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := gout[o]
		if g == 0 {
			continue
		}
		gb[o] += g
		w := d.W[o*d.In : (o+1)*d.In]
		gwRow := gw[o*d.In : (o+1)*d.In]
		for j := range gin {
			gwRow[j] += g * x[j]
			gin[j] += g * w[j]
		}
	}
	return gin
}

// sparsemaxBackward maps the output gradient through the projection.
func sparsemaxBackward(g []float64, support []bool) []float64 {
	sum, cnt := 0.0, 0
	for i, s := range support {
		if s {
			sum += g[i]
			cnt++
		}
	}
	out := make([]float64, len(g))
	if cnt == 0 {
		return out
	}
	mean := sum / float64(cnt)
	for i, s := range support {
		if s {
			out[i] = g[i] - mean
		}
	}
	return out
}

// gluBackward maps the output gradient back to z's gradient.
func gluBackward(z, gout []float64) []float64 {
	h := len(z) / 2
	gz := make([]float64, len(z))
	for i := 0; i < h; i++ {
		s := sigmoid(z[h+i])
		gz[i] = gout[i] * s
		gz[h+i] = gout[i] * z[i] * s * (1 - s)
	}
	return gz
}

// backwardSample backpropagates dL/dout for one sample through the cached
// forward state.
func (m *Model) backwardSample(x []float64, caches []stepCache, gOut float64, g *grads) {
	d := m.Config.DecisionDim
	agg := caches[0].dPreRelu // aggregate stashed by forwardSample

	// Output layer.
	gAgg := m.Out.backward(agg, []float64{gOut}, g.outW, g.outB)

	// gA accumulates the gradient flowing into the attention features of
	// each earlier step (used by the next step's attentive transformer).
	gANext := make([]float64, m.Config.AttentionDim)

	for s := m.Config.Steps - 1; s >= 0; s-- {
		c := caches[s+1]
		// Gradient into this step's transformer output hs = [d | a].
		gh := make([]float64, d+m.Config.AttentionDim)
		for i := 0; i < d; i++ {
			if c.dPreRelu[i] > 0 {
				gh[i] = gAgg[i]
			}
		}
		copy(gh[d:], gANext)

		gz2 := gluBackward(c.stepZ, gh)
		ghShared := m.StepFC[s].backward(c.sharedH, gz2, g.stepW[s], g.stepB[s])
		gz := gluBackward(c.sharedZ, ghShared)
		gxm := m.Shared.backward(c.xm, gz, g.sharedW, g.sharedB)

		// xm = mask ⊙ x → gradient to the mask.
		gMask := make([]float64, m.NumFeatures)
		for i := range gMask {
			gMask[i] = gxm[i] * x[i]
		}
		gLogits := sparsemaxBackward(gMask, c.support)
		// logits = raw * prior (prior treated as constant).
		gRaw := make([]float64, m.NumFeatures)
		for i := range gRaw {
			gRaw[i] = gLogits[i] * c.prior[i]
		}
		prevA := caches[s].a
		gANext = m.AttFC[s].backward(prevA, gRaw, g.attW[s], g.attB[s])
	}

	// Step 0 attention features came from the unmasked shared pass.
	c0 := caches[0]
	gh0 := make([]float64, d+m.Config.AttentionDim)
	copy(gh0[d:], gANext)
	gz0 := gluBackward(c0.sharedZ, gh0)
	m.Shared.backward(x, gz0, g.sharedW, g.sharedB)
}
