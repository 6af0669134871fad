package mlp

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpc-repro/aiio/internal/shap"
)

// The blocked training path (trainStepFast) must track the scalar reference
// step (referenceStep) to FP-reassociation accuracy. Both paths
// consume the rng identically (one dropout draw per element), so with the
// same seed they see the same shuffles and the same dropout masks; the only
// divergence is rounding from paired rows and fused multiply-adds, which
// compounds through Adam over epochs. The documented training-parity
// tolerance is 1e-6 relative on predictions after a 5-epoch fit — the same
// contract BENCH_training.json records for the end-to-end diagnose parity.
const trainParityTol = 1e-6

func trainBothPaths(t *testing.T, cfg Config, epochs int) (fast, ref *Model) {
	t.Helper()
	x, y := synth(600, 5, 31)
	ex, ey := synth(150, 5, 32)
	cfg.Epochs = epochs
	cfg.EarlyStoppingRounds = 0

	fast, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatalf("fast train: %v", err)
	}
	ref, err = train(cfg, x, y, ex, ey, nil, referenceStep)
	if err != nil {
		t.Fatalf("reference train: %v", err)
	}
	return fast, ref
}

func TestTrainFastMatchesReference(t *testing.T) {
	cfg := smallConfig()
	fast, ref := trainBothPaths(t, cfg, 5)

	px, _ := synth(200, 5, 33)
	pf := fast.PredictBatch(px)
	pr := ref.PredictBatch(px)
	for i := range pf {
		rel := math.Abs(pf[i]-pr[i]) / math.Max(1, math.Abs(pr[i]))
		if rel > trainParityTol {
			t.Fatalf("prediction %d diverged: fast=%v ref=%v rel=%.3g (tol %g)",
				i, pf[i], pr[i], rel, trainParityTol)
		}
	}
	// The learned tensors themselves must agree too, not just their
	// composition into predictions.
	for li := range fast.Dense {
		for wi := range fast.Dense[li].W {
			a, b := fast.Dense[li].W[wi], ref.Dense[li].W[wi]
			if math.Abs(a-b) > trainParityTol*math.Max(1, math.Abs(b)) {
				t.Fatalf("dense[%d].W[%d] diverged: fast=%v ref=%v", li, wi, a, b)
			}
		}
	}
}

func TestTrainFastMatchesReferenceWithoutDropout(t *testing.T) {
	// Dropout off exercises the pure GEMM forward/backward equivalence with
	// no mask interplay.
	cfg := smallConfig()
	cfg.Dropout = 0
	fast, ref := trainBothPaths(t, cfg, 5)
	px, _ := synth(100, 5, 34)
	pf := fast.PredictBatch(px)
	pr := ref.PredictBatch(px)
	for i := range pf {
		if math.Abs(pf[i]-pr[i]) > trainParityTol*math.Max(1, math.Abs(pr[i])) {
			t.Fatalf("prediction %d diverged: fast=%v ref=%v", i, pf[i], pr[i])
		}
	}
}

func TestTrainFastConvergesLikeReference(t *testing.T) {
	// Over a realistic budget the FP drift makes bitwise comparison
	// meaningless, but both paths must land at the same quality.
	cfg := smallConfig()
	x, y := synth(1200, 5, 35)
	ex, ey := synth(300, 5, 36)
	fast, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := train(cfg, x, y, ex, ey, nil, referenceStep)
	if err != nil {
		t.Fatal(err)
	}
	ef := rmseOf(fast.PredictBatch(ex), ey)
	er := rmseOf(ref.PredictBatch(ex), ey)
	if ef > er*1.25+0.05 {
		t.Fatalf("fast path converged worse: fast RMSE %v vs reference %v", ef, er)
	}
}

// TestSHAPParityWithReference is the end-to-end guard: networks fit on the
// fixture frame through the production and the reference step must give the
// same Kernel SHAP explanation (f(x) and every per-counter contribution)
// within 1e-4 relative, the training parity composed with SHAP's masked
// re-evaluations.
func TestSHAPParityWithReference(t *testing.T) {
	const shapParityTol = 1e-4
	tr, ev := fixtureFrame().Split(1, 0.5)
	cfg := DefaultConfig()
	cfg.Hidden = []int{45, 24, 12}
	cfg.Epochs = 8
	cfg.EarlyStoppingRounds = 0
	fast, err := Train(cfg, tr.X, tr.Y, ev.X, ev.Y)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := train(cfg, tr.X, tr.Y, ev.X, ev.Y, nil, referenceStep)
	if err != nil {
		t.Fatal(err)
	}
	scfg := shap.DefaultConfig()
	scfg.MaxExact = 10
	scfg.NSamples = 1024
	near := func(what string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > shapParityTol*math.Max(1, math.Abs(b)) {
			t.Errorf("%s diverged: fast=%v ref=%v", what, a, b)
		}
	}
	// The slowest eval job (the kind AIIO exists to diagnose) and the first.
	slowest := 0
	for i, y := range ev.Y {
		if y < ev.Y[slowest] {
			slowest = i
		}
	}
	for _, row := range []int{slowest, 0} {
		x := ev.X.Row(row)
		ef := shap.New(fast.PredictBatch, nil, scfg).Explain(x)
		er := shap.New(ref.PredictBatch, nil, scfg).Explain(x)
		near("f(x)", ef.FX, er.FX)
		near("base", ef.Base, er.Base)
		for j := range er.Phi {
			near(fmt.Sprintf("row %d phi[%d]", row, j), ef.Phi[j], er.Phi[j])
		}
	}
}
