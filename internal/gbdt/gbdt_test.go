package gbdt

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// synth generates a sparse, nonlinear regression problem reminiscent of the
// Darshan counters: some features are zero for many rows, the target mixes
// thresholds and interactions.
func synth(n, d int, seed int64) (*linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			if rng.Float64() < 0.3 {
				row[j] = 0 // sparsity
			} else {
				row[j] = rng.Float64() * 10
			}
		}
		y[i] = 3*row[0] - 2*row[1%d] + row[2%d]*row[3%d]/10
		if row[4%d] > 5 {
			y[i] += 8
		}
		y[i] += rng.NormFloat64() * 0.1
	}
	return x, y
}

func trainTestSplit(x *linalg.Matrix, y []float64, frac float64, seed int64) (xa *linalg.Matrix, ya []float64, xb *linalg.Matrix, yb []float64) {
	idx := rand.New(rand.NewSource(seed)).Perm(x.Rows)
	cut := int(frac * float64(x.Rows))
	xa = linalg.NewMatrix(cut, x.Cols)
	xb = linalg.NewMatrix(x.Rows-cut, x.Cols)
	ya = make([]float64, cut)
	yb = make([]float64, x.Rows-cut)
	for i, j := range idx {
		if i < cut {
			copy(xa.Row(i), x.Row(j))
			ya[i] = y[j]
		} else {
			copy(xb.Row(i-cut), x.Row(j))
			yb[i-cut] = y[j]
		}
	}
	return
}

func TestBinMapperProperties(t *testing.T) {
	x, _ := synth(500, 6, 1)
	bm := FitBins(x, 64)
	f := func(fi uint8, raw float64) bool {
		feat := int(fi) % x.Cols
		v := math.Abs(raw)
		b := bm.Bin(feat, v)
		if v == 0 {
			return b == 0
		}
		if b == 0 {
			return false // nonzero must not land in the zero bin
		}
		// Monotonicity: larger values never get smaller bins.
		return bm.Bin(feat, v*2) >= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Upper-bound consistency: v <= Upper(f, Bin(f, v)) for in-range values.
	for feat := 0; feat < x.Cols; feat++ {
		for i := 0; i < x.Rows; i++ {
			v := x.At(i, feat)
			b := bm.Bin(feat, v)
			maxBin := uint8(bm.NumBins(feat) - 1)
			if v <= bm.Uppers[feat][len(bm.Uppers[feat])-1] && v > bm.Upper(feat, b) {
				t.Fatalf("feature %d value %v maps to bin %d with upper %v", feat, v, b, bm.Upper(feat, b))
			}
			if b > maxBin {
				t.Fatalf("bin %d out of range (max %d)", b, maxBin)
			}
		}
	}
}

func TestBinMapperConstantFeature(t *testing.T) {
	x := linalg.NewMatrix(10, 2)
	for i := 0; i < 10; i++ {
		x.Set(i, 0, 5) // constant nonzero
		// feature 1 all zeros
	}
	bm := FitBins(x, 32)
	if bm.Bin(0, 5) != 1 {
		t.Errorf("constant feature bin = %d", bm.Bin(0, 5))
	}
	if bm.NumBins(1) != 1 {
		t.Errorf("all-zero feature has %d bins, want 1", bm.NumBins(1))
	}
	if bm.Bin(1, 0) != 0 {
		t.Error("zero must map to bin 0")
	}
}

func TestAllVariantsLearn(t *testing.T) {
	x, y := synth(2000, 8, 2)
	xTr, yTr, xEv, yEv := trainTestSplit(x, y, 0.5, 3)
	baseline := rmseOf(constPred(linalg.Mean(yTr), len(yEv)), yEv)
	for _, v := range []Variant{LevelWise, LeafWise, Oblivious} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cfg := DefaultConfig(v)
			cfg.Rounds = 120
			m, err := Train(cfg, xTr, yTr, xEv, yEv)
			if err != nil {
				t.Fatal(err)
			}
			pred := m.PredictBatch(xEv)
			e := rmseOf(pred, yEv)
			if e > baseline/2 {
				t.Errorf("%s eval RMSE %.4f not < half of baseline %.4f", v, e, baseline)
			}
			if len(m.TrainLoss) == 0 || len(m.EvalLoss) == 0 {
				t.Error("loss curves not recorded")
			}
			if m.TrainLoss[len(m.TrainLoss)-1] >= m.TrainLoss[0] {
				t.Error("training loss did not decrease")
			}
		})
	}
}

func constPred(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func rmseOf(pred, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

func TestTrainingLossMonotoneWithoutSampling(t *testing.T) {
	// With full data, no sampling, squared loss boosting must never
	// increase training RMSE.
	x, y := synth(800, 6, 4)
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 60
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(m.TrainLoss); i++ {
		if m.TrainLoss[i] > m.TrainLoss[i-1]+1e-9 {
			t.Fatalf("train loss increased at round %d: %.6f -> %.6f",
				i, m.TrainLoss[i-1], m.TrainLoss[i])
		}
	}
}

func TestEarlyStoppingTruncates(t *testing.T) {
	x, y := synth(600, 6, 5)
	xTr, yTr, xEv, yEv := trainTestSplit(x, y, 0.5, 6)
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 400
	cfg.EarlyStoppingRounds = 5
	m, err := Train(cfg, xTr, yTr, xEv, yEv)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trees) == 400 {
		t.Error("early stopping never triggered over 400 rounds")
	}
	if len(m.Trees) != m.BestIteration+1 {
		t.Errorf("trees %d != best iteration %d + 1", len(m.Trees), m.BestIteration)
	}
	// The kept prefix must be the best eval point.
	best := math.Inf(1)
	bestIdx := 0
	for i, e := range m.EvalLoss {
		if e < best-1e-12 {
			best, bestIdx = e, i
		}
	}
	if bestIdx != m.BestIteration {
		t.Errorf("BestIteration = %d, argmin eval = %d", m.BestIteration, bestIdx)
	}
}

func TestSingleLeafPredictsMean(t *testing.T) {
	x, y := synth(200, 4, 7)
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 1
	cfg.MaxDepth = 0 // no splits allowed
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := linalg.Mean(y)
	got := m.Predict(x.Row(0))
	// One round with a single-leaf tree: base + shrunk residual-mean step.
	want := mean + (-(0.0 - 0.0))*0 // base only if leaf value ~0
	_ = want
	if math.Abs(got-mean) > math.Abs(mean)*0.2+0.5 {
		t.Errorf("single-leaf prediction %v far from mean %v", got, mean)
	}
	if m.Trees[0].NumLeaves() != 1 {
		t.Errorf("tree has %d leaves, want 1", m.Trees[0].NumLeaves())
	}
}

func TestObliviousTreesAreSymmetric(t *testing.T) {
	x, y := synth(1000, 8, 8)
	cfg := DefaultConfig(Oblivious)
	cfg.Rounds = 10
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tree := range m.Trees {
		if !tree.IsOblivious() {
			t.Errorf("tree %d is not oblivious", i)
		}
	}
}

func TestLeafWiseRespectsLeafBudget(t *testing.T) {
	x, y := synth(1500, 8, 9)
	cfg := DefaultConfig(LeafWise)
	cfg.Rounds = 5
	cfg.MaxLeaves = 8
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tree := range m.Trees {
		if n := tree.NumLeaves(); n > 8 {
			t.Errorf("tree %d has %d leaves, budget 8", i, n)
		}
	}
}

func TestLevelWiseRespectsDepth(t *testing.T) {
	x, y := synth(1500, 8, 10)
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 5
	cfg.MaxDepth = 3
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tree := range m.Trees {
		if d := tree.Depth(); d > 3 {
			t.Errorf("tree %d has depth %d, max 3", i, d)
		}
	}
}

func TestPredictBinnedMatchesPredict(t *testing.T) {
	x, y := synth(800, 6, 11)
	cfg := DefaultConfig(LeafWise)
	cfg.Rounds = 20
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols := m.Bins.BinMatrix(x)
	for i := 0; i < x.Rows; i += 37 {
		raw := m.Base
		binned := m.Base
		for _, tree := range m.Trees {
			raw += tree.Predict(x.Row(i))
			binned += tree.predictBinned(cols, i)
		}
		if math.Abs(raw-binned) > 1e-9 {
			t.Fatalf("row %d: raw %.8f vs binned %.8f", i, raw, binned)
		}
	}
}

func TestColSampleAndSubsample(t *testing.T) {
	x, y := synth(800, 10, 12)
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 15
	cfg.ColSample = 0.5
	cfg.Subsample = 0.7
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rmseOf(m.PredictBatch(x), y) >= rmseOf(constPred(linalg.Mean(y), len(y)), y) {
		t.Error("sampled training failed to learn anything")
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	x, y := synth(500, 6, 13)
	cfg := DefaultConfig(LeafWise)
	cfg.Rounds = 10
	cfg.EarlyStoppingRounds = 0
	a, _ := Train(cfg, x, y, nil, nil)
	b, _ := Train(cfg, x, y, nil, nil)
	pa, pb := a.PredictBatch(x), b.PredictBatch(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestGainImportanceFindsSignalFeature(t *testing.T) {
	// y depends only on feature 0; importance must concentrate there.
	rng := rand.New(rand.NewSource(14))
	x := linalg.NewMatrix(1000, 5)
	y := make([]float64, 1000)
	for i := 0; i < 1000; i++ {
		for j := 0; j < 5; j++ {
			x.Set(i, j, rng.Float64()*10)
		}
		y[i] = 5 * x.At(i, 0)
	}
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 20
	cfg.EarlyStoppingRounds = 0
	m, _ := Train(cfg, x, y, nil, nil)
	for j := 1; j < 5; j++ {
		if m.Gain[j] > m.Gain[0]*0.05 {
			t.Errorf("noise feature %d gain %.2f vs signal %.2f", j, m.Gain[j], m.Gain[0])
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y := synth(400, 6, 15)
	cfg := DefaultConfig(Oblivious)
	cfg.Rounds = 8
	cfg.EarlyStoppingRounds = 0
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := m.PredictBatch(x), got.PredictBatch(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("Load accepted junk")
	}
}

func TestEmptyTrainingSetErrors(t *testing.T) {
	if _, err := Train(DefaultConfig(LevelWise), linalg.NewMatrix(0, 3), nil, nil, nil); err == nil {
		t.Error("Train accepted an empty dataset")
	}
}

func BenchmarkTrainLeafWise(b *testing.B) {
	x, y := synth(2000, 20, 1)
	cfg := DefaultConfig(LeafWise)
	cfg.Rounds = 30
	cfg.EarlyStoppingRounds = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(cfg, x, y, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	x, y := synth(2000, 20, 1)
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 50
	cfg.EarlyStoppingRounds = 0
	m, _ := Train(cfg, x, y, nil, nil)
	row := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(row)
	}
}

func TestHistSubtractionEquivalence(t *testing.T) {
	// The parent-minus-sibling histogram trick must not change what the
	// trees learn (up to float rounding in tie-breaks): eval RMSE with and
	// without it must be essentially identical.
	x, y := synth(1500, 10, 21)
	xTr, yTr, xEv, yEv := trainTestSplit(x, y, 0.5, 22)
	for _, v := range []Variant{LevelWise, LeafWise} {
		cfg := DefaultConfig(v)
		cfg.Rounds = 40
		cfg.EarlyStoppingRounds = 0
		cfg.GOSS = false // keep row sets identical
		cfg.Subsample = 1
		fast, err := Train(cfg, xTr, yTr, xEv, yEv)
		if err != nil {
			t.Fatal(err)
		}
		cfg.noHistSubtraction = true
		slow, err := Train(cfg, xTr, yTr, xEv, yEv)
		if err != nil {
			t.Fatal(err)
		}
		a := rmseOf(fast.PredictBatch(xEv), yEv)
		b := rmseOf(slow.PredictBatch(xEv), yEv)
		if math.Abs(a-b) > 0.02*(a+b) {
			t.Errorf("%s: RMSE with subtraction %.5f vs without %.5f", v, a, b)
		}
	}
}
