// Package mlp implements the paper's multilayer-perceptron performance
// function (Table 5): a fully-connected network with ReLU activations,
// batch normalization and dropout, trained with Adam on RMSE loss, with the
// same early stopping (10 rounds) as the other models. Inputs are
// standardized internally; training parallelizes the batch matrix products
// through internal/linalg.
package mlp

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/nntrain"
	"github.com/hpc-repro/aiio/internal/parallel"
)

// Config holds the architecture and optimizer settings. The default Hidden
// sizes reproduce Table 5 of the paper.
type Config struct {
	// Hidden lists the widths of the hidden dense layers.
	Hidden []int
	// Dropout is the drop probability applied after each normalized hidden
	// block.
	Dropout float64
	// LearningRate is the Adam step size.
	LearningRate float64
	// Epochs is the maximum number of passes over the training data.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// EarlyStoppingRounds stops training when the eval RMSE has not
	// improved for this many epochs; the best-epoch weights are restored.
	EarlyStoppingRounds int
	Seed                int64
	// WarmDriftTol is the input-drift score above which CanWarmStart
	// rejects seeding from a previous model (0 means DefaultWarmDriftTol).
	WarmDriftTol float64
}

// DefaultConfig returns the Table 5 architecture with typical optimizer
// settings.
func DefaultConfig() Config {
	return Config{
		Hidden:              []int{90, 89, 69, 49, 29, 9},
		Dropout:             0.2,
		LearningRate:        1e-3,
		Epochs:              200,
		BatchSize:           64,
		EarlyStoppingRounds: 10,
		Seed:                1,
	}
}

// DenseState is the serializable state of one dense layer.
type DenseState struct {
	In, Out int
	W       []float64 // Out*In, row-major by output unit
	B       []float64 // Out
}

// BNState is the serializable state of one batch-normalization layer.
type BNState struct {
	Dim         int
	Gamma, Beta []float64
	Mean, Var   []float64 // running statistics for inference
}

// Model is a trained MLP. The exported fields make it gob-serializable; the
// unexported optimizer state lives only during training.
type Model struct {
	Config Config
	Mean   []float64 // input standardization
	Std    []float64
	// ConstantCols lists input columns whose training variance was zero;
	// their Std is clamped to 1 so standardization is a no-op for them
	// instead of a divide-by-zero NaN.
	ConstantCols []int
	Dense        []DenseState // len(Hidden)+1 layers; last maps to 1 output
	BN           []BNState    // one per hidden layer except the first
	YMean        float64      // target centering
	YStd         float64
	// TrainLoss and EvalLoss record per-epoch RMSE curves.
	TrainLoss []float64
	EvalLoss  []float64
	BestEpoch int

	// scaler caches the standardization coefficients of Mean/Std.
	scaler nntrain.Scaler
	// scratch pools per-worker forward buffers so batch inference reuses
	// activation matrices instead of allocating per dense layer per shard.
	scratch sync.Pool
}

// fwdScratch is one worker's reusable forward-pass state: the standardized
// input block, two ping-pong activation matrices, and the per-call fused
// BN scale/shift vectors.
type fwdScratch struct {
	xs           linalg.Matrix
	ping, pong   linalg.Matrix
	scale, shift []float64
}

func (m *Model) getScratch() *fwdScratch {
	if s, ok := m.scratch.Get().(*fwdScratch); ok {
		return s
	}
	return &fwdScratch{}
}

func (m *Model) putScratch(s *fwdScratch) { m.scratch.Put(s) }

// Train fits the network on x/y with eval-based early stopping. evalX may be
// nil to train the full epoch budget.
func Train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64) (*Model, error) {
	return train(cfg, x, y, evalX, evalY, nil, fastStep)
}

// TrainWarm fits like Train but seeds the network, standardizer, and target
// scaling from prev — the warm start that lets incremental retraining run on
// a reduced epoch budget. When CanWarmStart rejects prev (architecture or
// feature-schema mismatch, input drift past the tolerance) it falls back to
// a cold start with the same cfg. Before the first epoch the seed weights
// are scored on the eval set and held as the early-stopping baseline, so a
// diverging warm run can never ship worse weights than it started with
// (BestEpoch is -1 when the seed weights win).
func TrainWarm(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	if ok, _ := CanWarmStart(prev, cfg, x, y); !ok {
		prev = nil
	}
	return train(cfg, x, y, evalX, evalY, prev, fastStep)
}

// stepper builds the per-mini-batch training step of a fit of m; Train and
// TrainWarm use fastStep.
type stepper func(m *Model, rng *rand.Rand) func(xs *linalg.Matrix, ys []float64, batch []int)

func train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model, newStep stepper) (*Model, error) {
	if x.Rows == 0 {
		return nil, errors.New("mlp: empty training set")
	}
	if x.Rows != len(y) {
		panic(fmt.Sprintf("mlp: %d rows vs %d targets", x.Rows, len(y)))
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = DefaultConfig().Hidden
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 1e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := &Model{Config: cfg}
	if prev != nil {
		// Warm start: continue training prev's network on the new data. The
		// standardizer comes along with the weights — the first dense layer
		// was learned against prev's input scaling, so refitting it here
		// would silently invalidate every layer.
		m.adoptPrevious(prev)
	} else {
		s := nntrain.FitStandardizer(x, y)
		m.Mean, m.Std, m.ConstantCols, m.YMean, m.YStd = s.Mean, s.Std, s.ConstantCols, s.YMean, s.YStd

		// Build layers: Dense(h0)+ReLU, then for each further hidden width
		// Dense+BN+ReLU+Dropout, then Dense(1).
		dims := append([]int{x.Cols}, cfg.Hidden...)
		for i := 0; i < len(cfg.Hidden); i++ {
			m.Dense = append(m.Dense, initDense(dims[i], dims[i+1], rng))
			if i > 0 {
				m.BN = append(m.BN, initBN(dims[i+1]))
			}
		}
		m.Dense = append(m.Dense, initDense(dims[len(dims)-1], 1, rng))
	}

	loop := nntrain.Loop{
		Epochs:              cfg.Epochs,
		BatchSize:           cfg.BatchSize,
		EarlyStoppingRounds: cfg.EarlyStoppingRounds,
		Rng:                 rng,
		Standardize:         m.standardize,
		YMean:               m.YMean,
		YStd:                m.YStd,
		Step:                newStep(m, rng),
		Predict:             m.predictStandardized,
		State:               m.state(),
		Warm:                prev != nil,
	}
	m.TrainLoss, m.EvalLoss, m.BestEpoch = loop.Run(x, y, evalX, evalY)
	return m, nil
}

// params lists the Adam tensors with a zeroed gradient buffer for each:
// dense layer l's W and B at 2l and 2l+1, then BN layer i's Gamma and Beta
// at 2L+2i and 2L+2i+1, where L = len(m.Dense).
func (m *Model) params() (params, grads [][]float64) {
	for i := range m.Dense {
		params = append(params, m.Dense[i].W, m.Dense[i].B)
	}
	for i := range m.BN {
		params = append(params, m.BN[i].Gamma, m.BN[i].Beta)
	}
	for _, p := range params {
		grads = append(grads, make([]float64, len(p)))
	}
	return params, grads
}

// state lists the tensors an early-stopping snapshot holds: the Adam
// tensors plus the BN running statistics, which training updates outside
// Adam.
func (m *Model) state() [][]float64 {
	var s [][]float64
	for i := range m.Dense {
		s = append(s, m.Dense[i].W, m.Dense[i].B)
	}
	for i := range m.BN {
		s = append(s, m.BN[i].Gamma, m.BN[i].Beta, m.BN[i].Mean, m.BN[i].Var)
	}
	return s
}

// fastStep is the production training step: trainStepFast accumulates one
// mini-batch's gradients on a trainScratch reused across the whole fit, then
// Adam updates every tensor.
func fastStep(m *Model, rng *rand.Rand) func(xs *linalg.Matrix, ys []float64, batch []int) {
	params, grads := m.params()
	opt := nntrain.NewAdam(params, grads, m.Config.LearningRate)
	ts := newTrainScratch(m, m.Config.BatchSize, len(m.Mean))
	return func(xs *linalg.Matrix, ys []float64, batch []int) {
		opt.ZeroGrad()
		m.trainStepFast(ts, batch, xs, ys, grads, rng)
		opt.Step()
	}
}

func initDense(in, out int, rng *rand.Rand) DenseState {
	d := DenseState{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out)}
	// He initialization for ReLU networks.
	scale := math.Sqrt(2 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

func initBN(dim int) BNState {
	bn := BNState{
		Dim:   dim,
		Gamma: make([]float64, dim),
		Beta:  make([]float64, dim),
		Mean:  make([]float64, dim),
		Var:   make([]float64, dim),
	}
	for i := range bn.Gamma {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

func (m *Model) standardize(x *linalg.Matrix) *linalg.Matrix {
	return m.standardizeInto(&linalg.Matrix{}, x)
}

// standardizeInto writes the standardized rows of x into dst (resized as
// needed).
func (m *Model) standardizeInto(dst, x *linalg.Matrix) *linalg.Matrix {
	return m.scaler.Into(dst, x, m.Mean, m.Std)
}

// predictStandardized runs inference on already-standardized inputs,
// returning predictions in the original target scale.
func (m *Model) predictStandardized(xs *linalg.Matrix) []float64 {
	out := make([]float64, xs.Rows)
	sc := m.getScratch()
	m.forwardStandardized(xs, out, sc)
	m.putScratch(sc)
	return out
}

// forwardStandardized runs the eval forward pass over the standardized
// block xs using one worker's scratch buffers, writing target-scale
// predictions into out (len(out) == xs.Rows). Dense layers run on the
// tiled linalg.MulTInto kernel; activations ping-pong between the two
// scratch matrices so the pass allocates nothing in steady state. xs is
// not modified.
func (m *Model) forwardStandardized(xs *linalg.Matrix, out []float64, sc *fwdScratch) {
	nHidden := len(m.Config.Hidden)
	h := xs
	bufs := [2]*linalg.Matrix{&sc.ping, &sc.pong}
	which := 0
	for l := 0; l <= nHidden; l++ {
		d := &m.Dense[l]
		dst := bufs[which].Reshape(h.Rows, d.Out)
		which ^= 1
		// Rows run sequentially here: callers already shard batches across
		// the worker pool, so the nested parallelism of MulTInto would only
		// oversubscribe the cores.
		i := 0
		for ; i+1 < h.Rows; i += 2 {
			// Row pairs share one pass over the layer weights (two FMAs
			// per weight load); outputs are bitwise identical to the
			// one-row-at-a-time kernel.
			linalg.GemvT2(dst.Row(i), dst.Row(i+1), d.W, d.Out, d.In, h.Row(i), h.Row(i+1), d.B)
		}
		for ; i < h.Rows; i++ {
			linalg.GemvT(dst.Row(i), d.W, d.Out, d.In, h.Row(i), d.B)
		}
		h = dst
		if l == nHidden {
			break
		}
		if l > 0 {
			// Fold eval-mode BN into one scale/shift pair per column, then
			// apply it fused with the ReLU in a single pass over the block.
			bn := &m.BN[l-1]
			if cap(sc.scale) < bn.Dim {
				sc.scale = make([]float64, bn.Dim)
				sc.shift = make([]float64, bn.Dim)
			}
			scale := sc.scale[:bn.Dim]
			shift := sc.shift[:bn.Dim]
			for j := 0; j < bn.Dim; j++ {
				s := bn.Gamma[j] / math.Sqrt(bn.Var[j]+1e-5)
				scale[j] = s
				shift[j] = bn.Beta[j] - bn.Mean[j]*s
			}
			for i := 0; i < h.Rows; i++ {
				linalg.ScaleShiftReLU(h.Row(i), scale, shift)
			}
		} else {
			linalg.ReLU(h.Data)
		}
	}
	for i := range out {
		out[i] = h.Data[i]*m.YStd + m.YMean
	}
}

// Predict returns the prediction for one raw feature vector. It sits on
// the per-job advisory path, so the 1-row input and activation matrices
// come from the model's scratch pool instead of fresh allocations.
func (m *Model) Predict(x []float64) float64 {
	sc := m.getScratch()
	xs := sc.xs.Reshape(1, len(x))
	inv, shift := m.scaler.Coeffs(m.Mean, m.Std)
	linalg.ScaleShiftInto(xs.Data, x, inv, shift)
	var out [1]float64
	m.forwardStandardized(xs, out[:], sc)
	m.putScratch(sc)
	return out[0]
}

// predictParallelMinRows is the batch size below which sharding a forward
// pass across cores costs more than the dense products it saves.
const predictParallelMinRows = 64

// PredictBatch predicts every row of x, sharding large batches (SHAP
// coalition matrices, evaluation frames) across the bounded worker pool.
// Rows are independent at inference time (batch norm uses running
// statistics), so the sharded result is bitwise-identical to a sequential
// pass.
func (m *Model) PredictBatch(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	if x.Rows < predictParallelMinRows {
		sc := m.getScratch()
		xs := m.standardizeInto(&sc.xs, x)
		m.forwardStandardized(xs, out, sc)
		m.putScratch(sc)
		return out
	}
	parallel.For(x.Rows, 0, func(lo, hi int) {
		sc := m.getScratch()
		sub := &linalg.Matrix{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
		xs := m.standardizeInto(&sc.xs, sub)
		m.forwardStandardized(xs, out[lo:hi], sc)
		m.putScratch(sc)
	})
	return out
}

// adoptPrevious deep-copies prev's standardizer, target scaling, and
// learned tensors into m as the warm-start seed. prev is never aliased: the
// previous generation may still be serving predictions concurrently.
func (m *Model) adoptPrevious(prev *Model) {
	m.Mean = append([]float64(nil), prev.Mean...)
	m.Std = append([]float64(nil), prev.Std...)
	m.ConstantCols = append([]int(nil), prev.ConstantCols...)
	m.YMean, m.YStd = prev.YMean, prev.YStd
	m.Dense = make([]DenseState, len(prev.Dense))
	for i, d := range prev.Dense {
		m.Dense[i] = DenseState{In: d.In, Out: d.Out,
			W: append([]float64(nil), d.W...), B: append([]float64(nil), d.B...)}
	}
	m.BN = make([]BNState, len(prev.BN))
	for i, bn := range prev.BN {
		m.BN[i] = BNState{Dim: bn.Dim,
			Gamma: append([]float64(nil), bn.Gamma...),
			Beta:  append([]float64(nil), bn.Beta...),
			Mean:  append([]float64(nil), bn.Mean...),
			Var:   append([]float64(nil), bn.Var...)}
	}
}

// Save gob-encodes the model.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("mlp: encode model: %w", err)
	}
	return nil
}

// Load decodes a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("mlp: decode model: %w", err)
	}
	return &m, nil
}
