// Package nntrain holds the training machinery the two neural performance
// functions (internal/mlp and internal/tabnet) share: the input/target
// standardizer and its warm-start drift check, Adam, and the epoch loop with
// seeded shuffling, mini-batches, loss curves, eval early stopping and the
// best-weights snapshot. Each network supplies only its own parts: layer
// init, the per-batch gradient step, its Adam tensor list and the tensors a
// snapshot must hold.
package nntrain

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// Standardizer is a fitted input and target standardization. Models keep
// these values as their own top-level exported fields, which name them in
// the gob encoding, and pass them in by value.
type Standardizer struct {
	Mean, Std []float64
	// ConstantCols lists input columns whose training variance was zero;
	// their Std is clamped to 1 so standardization is a no-op for them
	// instead of a divide-by-zero NaN.
	ConstantCols []int
	YMean, YStd  float64
}

// FitStandardizer fits per-column mean and population stddev of x and the
// same of y.
func FitStandardizer(x *linalg.Matrix, y []float64) Standardizer {
	s := Standardizer{Mean: make([]float64, x.Cols), Std: make([]float64, x.Cols)}
	n := float64(x.Rows)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
			s.ConstantCols = append(s.ConstantCols, j)
		}
	}
	s.YMean = linalg.Mean(y)
	v := 0.0
	for _, yv := range y {
		d := yv - s.YMean
		v += d * d
	}
	s.YStd = math.Sqrt(v / n)
	if s.YStd < 1e-12 {
		s.YStd = 1
	}
	return s
}

// DefaultWarmDriftTol is the input-drift score above which warm starting is
// rejected: an average standardized mean shift of one sigma across features
// (or on the target) means the frozen standardizer, and every weight trained
// against it, no longer describes the data.
const DefaultWarmDriftTol = 1.0

// CheckWarm is the data half of a family's CanWarmStart: x must have the
// column count s was fit on, and x/y must not have drifted from s past tol
// (<= 0 means DefaultWarmDriftTol). It reports whether s can seed a fit, and
// if not, why.
func (s Standardizer) CheckWarm(x *linalg.Matrix, y []float64, tol float64) (bool, string) {
	if x.Cols != len(s.Mean) {
		return false, fmt.Sprintf("feature schema changed: %d columns vs %d", x.Cols, len(s.Mean))
	}
	if tol <= 0 {
		tol = DefaultWarmDriftTol
	}
	if d := s.drift(x, y); d > tol {
		return false, fmt.Sprintf("input drift %.3f exceeds tolerance %.3f", d, tol)
	}
	return true, ""
}

// drift scores how far x/y moved from the distribution s was fit on: the
// mean over features of |mean_new - mean| / std (each clamped at 10 sigma so
// one wild counter cannot saturate the average alone), maxed with the same
// shift for the target. 0 means unchanged.
func (s Standardizer) drift(x *linalg.Matrix, y []float64) float64 {
	if x.Rows == 0 || x.Cols == 0 {
		return 0
	}
	n := float64(x.Rows)
	colSum := make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			colSum[j] += v
		}
	}
	fdrift := 0.0
	for j, sum := range colSum {
		std := s.Std[j]
		if !(std > 1e-12) || math.IsInf(std, 1) {
			std = 1
		}
		fdrift += math.Min(math.Abs(sum/n-s.Mean[j])/std, 10)
	}
	fdrift /= float64(x.Cols)
	ystd := s.YStd
	if !(ystd > 1e-12) {
		ystd = 1
	}
	ydrift := math.Min(math.Abs(linalg.Mean(y)-s.YMean)/ystd, 10)
	return math.Max(fdrift, ydrift)
}

// Scaler caches a model's per-column standardization coefficients. The
// zero value is ready; models hold it in an unexported field, so gob never
// sees it and decoded models build it on first use.
type Scaler struct {
	once       sync.Once
	inv, shift []float64
}

// Coeffs returns the cached reciprocal stddev and the matching shift
// -mean/std. Entries of std that are zero, negative or non-finite scale by
// 1 (legacy serialized models predate the fit-time clamp), so
// standardization can never manufacture a NaN at inference time. mean and
// std must not change after the first call.
func (c *Scaler) Coeffs(mean, std []float64) (inv, shift []float64) {
	c.once.Do(func() {
		c.inv = make([]float64, len(std))
		c.shift = make([]float64, len(std))
		for j, s := range std {
			if s > 0 && !math.IsInf(s, 1) {
				c.inv[j] = 1 / s
			} else {
				c.inv[j] = 1
			}
			c.shift[j] = -mean[j] * c.inv[j]
		}
	})
	return c.inv, c.shift
}

// Into writes the standardized rows of x into dst, reshaped as needed, and
// returns it.
func (c *Scaler) Into(dst, x *linalg.Matrix, mean, std []float64) *linalg.Matrix {
	inv, shift := c.Coeffs(mean, std)
	out := dst.Reshape(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		// (v-mean)/std computed as v*inv - mean*inv: one fused multiply-add
		// per element.
		linalg.ScaleShiftInto(out.Row(i), x.Row(i), inv, shift)
	}
	return out
}

// Adam holds the optimizer state of a list of tensors.
type Adam struct {
	params, grads [][]float64
	m, v          [][]float64
	lr            float64
	t             int
}

// NewAdam returns Adam at step size lr over params, whose gradients
// accumulate in grads (index-aligned with params).
func NewAdam(params, grads [][]float64, lr float64) *Adam {
	a := &Adam{params: params, grads: grads, lr: lr}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

// ZeroGrad clears every gradient buffer ahead of a mini-batch.
func (a *Adam) ZeroGrad() {
	for _, g := range a.grads {
		clear(g)
	}
}

// Step applies one Adam update to every tensor from its gradient.
func (a *Adam) Step() {
	a.t++
	b1, b2, eps := 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	for i, w := range a.params {
		linalg.AdamStep(w, a.m[i], a.v[i], a.grads[i], b1, b2, c1, c2, a.lr, eps)
	}
}

// Loop is one network's fit: the shared epoch machinery plus the hooks the
// network supplies.
type Loop struct {
	Epochs, BatchSize int
	// EarlyStoppingRounds stops training once the eval RMSE has not
	// improved for this many epochs (0 disables stopping).
	EarlyStoppingRounds int
	// Rng shuffles the training rows every epoch; Step may draw from it.
	Rng *rand.Rand
	// Standardize applies the model's input standardization; the loop
	// trains on Standardize(x) against the targets (y-YMean)/YStd.
	Standardize func(x *linalg.Matrix) *linalg.Matrix
	YMean, YStd float64
	// Step trains on one mini-batch: batch indexes rows of the standardized
	// xs/ys.
	Step func(xs *linalg.Matrix, ys []float64, batch []int)
	// Predict returns target-scale predictions for standardized rows.
	Predict func(xs *linalg.Matrix) []float64
	// State lists every tensor the best-epoch snapshot saves and restores.
	State [][]float64
	// Warm marks the weights as a seed from a previous model: when there is
	// an eval set they are scored before the first epoch, and early stopping
	// restores them if no epoch beats them (best epoch -1).
	Warm bool
}

// Run trains on x/y for up to Epochs epochs with eval-based early stopping
// (evalX may be nil to run the full budget) and leaves the best epoch's
// State in place. It returns the per-epoch training and eval RMSE curves
// and the best epoch.
func (l *Loop) Run(x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64) (trainLoss, evalLoss []float64, bestEpoch int) {
	xs := l.Standardize(x)
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - l.YMean) / l.YStd
	}
	var evalXS *linalg.Matrix
	if evalX != nil && evalX.Rows > 0 {
		evalXS = l.Standardize(evalX)
	}

	best := math.Inf(1)
	sinceBest := 0
	var snapshot [][]float64
	save := func() {
		if snapshot == nil {
			snapshot = make([][]float64, len(l.State))
			for i, t := range l.State {
				snapshot[i] = make([]float64, len(t))
			}
		}
		for i, t := range l.State {
			copy(snapshot[i], t)
		}
	}
	if l.Warm && evalXS != nil {
		best = rmse(l.Predict(evalXS), evalY)
		bestEpoch = -1
		save()
	}

	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < l.Epochs; epoch++ {
		l.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += l.BatchSize {
			l.Step(xs, ys, order[lo:min(lo+l.BatchSize, len(order))])
		}

		pred := l.Predict(xs)
		s := 0.0
		for i := range ys {
			d := (pred[i]-l.YMean)/l.YStd - ys[i]
			s += d * d
		}
		trainLoss = append(trainLoss, math.Sqrt(s/float64(len(ys))))
		if evalXS == nil {
			bestEpoch = epoch
			continue
		}
		e := rmse(l.Predict(evalXS), evalY)
		evalLoss = append(evalLoss, e)
		if e < best-1e-12 {
			best = e
			bestEpoch = epoch
			sinceBest = 0
			save()
			continue
		}
		sinceBest++
		if l.EarlyStoppingRounds > 0 && sinceBest >= l.EarlyStoppingRounds {
			break
		}
	}
	if snapshot != nil {
		for i, t := range l.State {
			copy(t, snapshot[i])
		}
	}
	return trainLoss, evalLoss, bestEpoch
}

// rmse is the root mean squared error of pred against y.
func rmse(pred, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}
