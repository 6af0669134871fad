package core

import (
	"context"
	"testing"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// TestEnsembleWarmStartHoldsQualityOnReducedBudget trains a warm ensemble
// on a fresh window from the same workload distribution, on 30% of the cold
// budget, and requires every model to (a) actually warm start and (b) stay
// within a modest margin of its cold counterpart's eval RMSE.
func TestEnsembleWarmStartHoldsQualityOnReducedBudget(t *testing.T) {
	_, prev, coldReport := fixture(t)

	ds := logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 23})
	frame := features.Build(ds)
	opts := DefaultTrainOptions()
	opts.Fast = true
	opts.WarmStart = true
	opts.WarmFrom = prev
	_, warmReport, err := TrainEnsemble(frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]float64{}
	for _, r := range coldReport.Models {
		cold[r.Name] = r.PredictionRMSE
	}
	for _, r := range warmReport.Models {
		if !r.WarmStart {
			t.Errorf("model %s did not warm start (fallback: %q)", r.Name, r.WarmFallback)
			continue
		}
		// Different eval split than the cold report's, so the comparison is
		// a sanity band, not an exact improvement claim; the tight claims
		// live in the per-family warm tests.
		if r.PredictionRMSE > cold[r.Name]*1.5+0.1 {
			t.Errorf("model %s warm RMSE %.4f far above cold %.4f", r.Name, r.PredictionRMSE, cold[r.Name])
		}
	}
}

// TestEnsembleWarmStartDriftFallsBackCold rescales every feature so each
// family's drift gate (standardizer drift for the nets, bin-edge drift for
// the trees) must refuse the seed and fall back to a cold fit.
func TestEnsembleWarmStartDriftFallsBackCold(t *testing.T) {
	frame, prev, _ := fixture(t)

	shifted := &features.Frame{X: frame.X.Clone(), Y: frame.Y, Records: frame.Records}
	for i := range shifted.X.Data {
		shifted.X.Data[i] = shifted.X.Data[i]*1e3 + 1e6
	}
	opts := DefaultTrainOptions()
	opts.Fast = true
	opts.WarmStart = true
	opts.WarmFrom = prev
	opts.Models = []string{NameXGBoost, NameMLP, NameTabNet}
	_, report, err := TrainEnsemble(shifted, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Models {
		if r.WarmStart {
			t.Errorf("model %s warm started on drifted features", r.Name)
		}
		if r.WarmFallback == "" {
			t.Errorf("model %s fell back without a recorded reason", r.Name)
		}
	}
}

// TestRunIncrementalWarmStartsFromStore runs two retrain cycles with warm
// starting enabled: the first has no prior generation (cold), the second
// must seed from the generation the first committed.
func TestRunIncrementalWarmStartsFromStore(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	store := OpenStore(t.TempDir())
	opts := fastIncOpts()
	opts.Train.WarmStart = true
	// Enough volume per cycle that the per-feature quantile edges are
	// stable estimates; with the tiny default windows the bin structure is
	// sampling noise and the drift gate correctly refuses to warm start.
	opts.Window = 300

	fillLog(t, jl, 0, 300)
	rep1, err := RunIncremental(context.Background(), jl, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Train.Models[0].WarmStart {
		t.Error("first cycle warm started with no prior generation")
	}

	fillLog(t, jl, 300, 600)
	rep2, err := RunIncremental(context.Background(), jl, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Train.Models[0].WarmStart {
		t.Errorf("second cycle did not warm start from generation %d (fallback: %q)",
			rep1.Generation, rep2.Train.Models[0].WarmFallback)
	}
}
