package nntrain

import (
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// scriptedLoop builds a Loop over a one-weight "network" whose step sets the
// weight to the next value of script and records the epoch in a second
// state tensor that no optimizer owns. Predictions are the weight itself
// and the eval target is 0, so the eval RMSE of an epoch is |weight|.
func scriptedLoop(w0 float64, script []float64) (*Loop, []float64, []float64) {
	w, epoch := []float64{w0}, []float64{-1}
	calls := 0
	l := &Loop{
		Epochs:              len(script),
		BatchSize:           8,
		EarlyStoppingRounds: 2,
		Rng:                 rand.New(rand.NewSource(1)),
		Standardize:         func(x *linalg.Matrix) *linalg.Matrix { return x },
		YStd:                1,
		Step: func(xs *linalg.Matrix, ys []float64, batch []int) {
			w[0] = script[calls]
			epoch[0] = float64(calls)
			calls++
		},
		Predict: func(xs *linalg.Matrix) []float64 {
			out := make([]float64, xs.Rows)
			for i := range out {
				out[i] = w[0]
			}
			return out
		},
		State: [][]float64{w, epoch},
	}
	return l, w, epoch
}

func TestLoopRestoresBestEpochState(t *testing.T) {
	l, w, epoch := scriptedLoop(9, []float64{3, 1, 2, 2.5, 0.1})
	x := linalg.NewMatrix(1, 1)
	trainLoss, evalLoss, best := l.Run(x, []float64{0}, x, []float64{0})
	// Epoch 1 is best; epochs 2 and 3 are stale, so the fit stops before
	// epoch 4 and restores every State tensor to its epoch-1 values.
	if best != 1 || len(trainLoss) != 4 || len(evalLoss) != 4 {
		t.Fatalf("best %d, %d train / %d eval losses; want 1, 4, 4", best, len(trainLoss), len(evalLoss))
	}
	if w[0] != 1 || epoch[0] != 1 {
		t.Fatalf("restored weight %v, epoch tensor %v; want 1, 1", w[0], epoch[0])
	}
}

func TestLoopWarmSeedWins(t *testing.T) {
	l, w, epoch := scriptedLoop(0.5, []float64{3, 1, 2})
	l.Warm = true
	x := linalg.NewMatrix(1, 1)
	_, _, best := l.Run(x, []float64{0}, x, []float64{0})
	if best != -1 || w[0] != 0.5 || epoch[0] != -1 {
		t.Fatalf("best %d, weight %v, epoch tensor %v; want the seed back (-1, 0.5, -1)", best, w[0], epoch[0])
	}
}

func TestLoopWithoutEvalRunsFullBudget(t *testing.T) {
	l, w, _ := scriptedLoop(9, []float64{3, 1, 2})
	x := linalg.NewMatrix(1, 1)
	trainLoss, evalLoss, best := l.Run(x, []float64{0}, nil, nil)
	if best != 2 || len(trainLoss) != 3 || evalLoss != nil || w[0] != 2 {
		t.Fatalf("best %d, %d train losses, eval %v, weight %v; want 2, 3, nil, 2", best, len(trainLoss), evalLoss, w[0])
	}
}
