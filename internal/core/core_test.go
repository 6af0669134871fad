package core

import (
	"math"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/shap"
	"github.com/hpc-repro/aiio/internal/workload"
)

var (
	fixtureOnce   sync.Once
	fixtureFrame  *features.Frame
	fixtureEns    *Ensemble
	fixtureReport *TrainReport
	fixtureErr    error
)

// fixture trains a small but real five-model ensemble once for all tests
// and benchmarks.
func fixture(t testing.TB) (*features.Frame, *Ensemble, *TrainReport) {
	t.Helper()
	fixtureOnce.Do(func() {
		ds := logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 11})
		fixtureFrame = features.Build(ds)
		opts := DefaultTrainOptions()
		opts.Fast = true
		fixtureEns, fixtureReport, fixtureErr = TrainEnsemble(fixtureFrame, opts)
	})
	if fixtureErr != nil {
		t.Fatalf("fixture training failed: %v", fixtureErr)
	}
	return fixtureFrame, fixtureEns, fixtureReport
}

func fastDiagOpts() DiagnoseOptions {
	opts := DefaultDiagnoseOptions()
	opts.SHAP.MaxExact = 10
	opts.SHAP.NSamples = 1024
	return opts
}

// slowJob simulates the paper's pattern 1 (small synced writes) at reduced
// scale: the canonical "bad" job.
func slowJob(t testing.TB) *darshan.Record {
	t.Helper()
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	cfg := workload.Patterns()[0].Config.Scale(16, 4)
	rec, _ := cfg.Run("ior", 999, 77, params)
	return rec
}

func TestTrainEnsembleAllFiveModels(t *testing.T) {
	_, ens, report := fixture(t)
	if len(ens.Models) != 5 {
		t.Fatalf("trained %d models, want 5", len(ens.Models))
	}
	for i, name := range ModelNames() {
		if ens.Models[i].Name() != name {
			t.Errorf("model %d = %s, want %s", i, ens.Models[i].Name(), name)
		}
	}
	for _, r := range report.Models {
		if r.PredictionRMSE <= 0 || math.IsNaN(r.PredictionRMSE) {
			t.Errorf("model %s has invalid RMSE %v", r.Name, r.PredictionRMSE)
		}
		// The models must beat predicting the mean by a wide margin. The
		// transformed performance spans several units; RMSE should be well
		// under 1.
		if r.PredictionRMSE > 1.0 {
			t.Errorf("model %s RMSE %.4f too high to be useful", r.Name, r.PredictionRMSE)
		}
	}
	if ens.Model(NameMLP) == nil || ens.Model("nope") != nil {
		t.Error("Model lookup broken")
	}
}

func TestDiagnoseFindsSmallWriteBottleneck(t *testing.T) {
	_, ens, _ := fixture(t)
	rec := slowJob(t)
	diag, err := ens.Diagnose(rec, fastDiagOpts())
	if err != nil {
		t.Fatal(err)
	}
	bottlenecks := diag.Bottlenecks()
	if len(bottlenecks) == 0 {
		t.Fatal("no bottlenecks found for the canonical slow job")
	}
	// Among the top-5 negative factors there must be a small-write-related
	// counter (SIZE_WRITE_100_1K or POSIX_WRITES), as in Fig. 7a.
	found := false
	top := bottlenecks
	if len(top) > 5 {
		top = top[:5]
	}
	for _, f := range top {
		if f.Counter == darshan.PosixSizeWrite100_1K || f.Counter == darshan.PosixWrites {
			found = true
		}
	}
	if !found {
		t.Errorf("small-write counters not in top-5 bottlenecks: %+v", top)
	}
}

func TestDiagnosisRobustness(t *testing.T) {
	_, ens, _ := fixture(t)
	rec := slowJob(t) // write-only job
	diag, err := ens.Diagnose(rec, fastDiagOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !diag.IsRobust() {
		t.Fatal("diagnosis assigned non-zero impact to zero counters")
	}
	// Stronger: a write-only job must have zero contribution on every
	// read counter in the merged diagnosis.
	for j, c := range diag.Average.Contributions {
		id := darshan.CounterID(j)
		if id.IsReadCounter() && c != 0 {
			t.Errorf("read counter %s got contribution %v on a write-only job", id, c)
		}
	}
}

func TestMergingProperties(t *testing.T) {
	frame, ens, _ := fixture(t)
	rec := frame.Records[3]
	diag, err := ens.Diagnose(rec, fastDiagOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 8 weights sum to 1 and favor the most accurate model.
	sum := 0.0
	for _, w := range diag.Weights {
		if w < 0 {
			t.Errorf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	maxW, maxI := -1.0, 0
	for i, w := range diag.Weights {
		if w > maxW {
			maxW, maxI = w, i
		}
	}
	if maxI != diag.ClosestIndex {
		t.Errorf("largest weight on model %d but closest is %d", maxI, diag.ClosestIndex)
	}
	// Closest (Eq. 6) is the argmin of |pred - actual|.
	for i, md := range diag.PerModel {
		if math.Abs(md.Predicted-diag.Actual) <
			math.Abs(diag.PerModel[diag.ClosestIndex].Predicted-diag.Actual) {
			t.Errorf("model %d closer than ClosestIndex", i)
		}
	}
	// Average contributions are the weighted mean of the per-model ones.
	for j := range diag.Average.Contributions {
		want := 0.0
		for mi, md := range diag.PerModel {
			want += diag.Weights[mi] * md.Contributions[j]
		}
		if math.Abs(diag.Average.Contributions[j]-want) > 1e-12 {
			t.Fatalf("average contribution %d mismatch", j)
		}
	}
}

func TestEvaluateTable2MergingWins(t *testing.T) {
	frame, ens, _ := fixture(t)
	_, eval := frame.Split(1, 0.5)
	table, err := EvaluateTable2(ens, eval, 60, fastDiagOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 7 {
		t.Fatalf("table has %d rows, want 7 (5 models + closest + average)", len(table.Rows))
	}
	closest := table.Row("closest")
	average := table.Row("average")
	if closest == nil || average == nil {
		t.Fatal("missing merged rows")
	}
	// The Closest Method picks the per-job best model, so its RMSE cannot
	// exceed any single model's (the paper's headline claim).
	for _, name := range ModelNames() {
		r := table.Row(name)
		if r == nil {
			t.Fatalf("missing row %s", name)
		}
		if closest.PredictionRMSE > r.PredictionRMSE+1e-9 {
			t.Errorf("closest prediction RMSE %.4f exceeds %s's %.4f",
				closest.PredictionRMSE, name, r.PredictionRMSE)
		}
	}
	// The Average Method must beat the worst single model.
	worst := 0.0
	for _, name := range ModelNames() {
		if r := table.Row(name); r.PredictionRMSE > worst {
			worst = r.PredictionRMSE
		}
	}
	if average.PredictionRMSE >= worst {
		t.Errorf("average RMSE %.4f not better than worst single model %.4f",
			average.PredictionRMSE, worst)
	}
	for _, row := range table.Rows {
		if row.DiagnosisRMSE <= 0 || math.IsNaN(row.DiagnosisRMSE) {
			t.Errorf("row %s diagnosis RMSE invalid: %v", row.Name, row.DiagnosisRMSE)
		}
	}
}

func TestDiagnoseWithLIME(t *testing.T) {
	_, ens, _ := fixture(t)
	rec := slowJob(t)
	opts := DefaultDiagnoseOptions()
	opts.Interpreter = InterpreterLIME
	opts.LIME.NSamples = 800
	diag, err := ens.Diagnose(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.IsRobust() {
		t.Error("LIME diagnosis not robust")
	}
	if len(diag.TopFactors(5)) == 0 {
		t.Error("LIME diagnosis produced no factors")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	frame, ens, _ := fixture(t)
	dir := t.TempDir()
	if err := SaveEnsemble(dir, ens); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Models) != len(ens.Models) {
		t.Fatalf("loaded %d models", len(loaded.Models))
	}
	x := frame.X.Row(0)
	for i := range ens.Models {
		a, b := ens.Models[i].Predict(x), loaded.Models[i].Predict(x)
		if a != b {
			t.Errorf("model %s predicts %v after reload, was %v", ens.Models[i].Name(), b, a)
		}
	}
	if _, err := LoadEnsemble(t.TempDir()); err == nil {
		t.Error("LoadEnsemble accepted an empty dir")
	}
}

func TestGBDTIntrospection(t *testing.T) {
	_, ens, _ := fixture(t)
	xgb := ens.Model(NameXGBoost)
	train, eval, ok := GBDTLossCurves(xgb)
	if !ok || len(train) == 0 || len(eval) == 0 {
		t.Error("no loss curves from the XGBoost-variant model (Fig. 16 input)")
	}
	gain, ok := FeatureGain(xgb)
	if !ok || len(gain) != int(darshan.NumCounters) {
		t.Error("no feature gains")
	}
	if _, _, ok := GBDTLossCurves(ens.Model(NameMLP)); ok {
		t.Error("MLP reported GBDT loss curves")
	}
}

func TestDiagnoseErrors(t *testing.T) {
	empty := &Ensemble{}
	if _, err := empty.Diagnose(&darshan.Record{}, DefaultDiagnoseOptions()); err == nil {
		t.Error("empty ensemble diagnosed")
	}
	_, ens, _ := fixture(t)
	bad := DefaultDiagnoseOptions()
	bad.Interpreter = "magic"
	if _, err := ens.Diagnose(&darshan.Record{}, bad); err == nil {
		t.Error("unknown interpreter accepted")
	}
	if _, _, err := TrainEnsemble(&features.Frame{X: nil, Y: nil}, DefaultTrainOptions()); err == nil {
		t.Error("TrainEnsemble accepted tiny frame")
	}
}

func TestDiagnoseAllZeroRecord(t *testing.T) {
	_, ens, _ := fixture(t)
	diag, err := ens.Diagnose(&darshan.Record{}, fastDiagOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range diag.Average.Contributions {
		if c != 0 {
			t.Fatal("all-zero record got non-zero contributions")
		}
	}
	if len(diag.Bottlenecks()) != 0 {
		t.Error("all-zero record has bottlenecks")
	}
}

func TestTrainSubsetOfModels(t *testing.T) {
	frame, _, _ := fixture(t)
	opts := DefaultTrainOptions()
	opts.Fast = true
	opts.Models = []string{NameLightGBM}
	ens, report, err := TrainEnsemble(frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Models) != 1 || report.Models[0].Name != NameLightGBM {
		t.Errorf("subset training broken: %+v", report)
	}
	opts.Models = []string{"bogus"}
	if _, _, err := TrainEnsemble(frame, opts); err == nil {
		t.Error("bogus model name accepted")
	}
}

func TestDiagnoseWithTreeSHAP(t *testing.T) {
	_, ens, _ := fixture(t)
	rec := slowJob(t)
	opts := fastDiagOpts()
	opts.SHAPMode = shap.ModeAuto
	diag, err := ens.Diagnose(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.IsRobust() {
		t.Error("TreeSHAP diagnosis not robust")
	}
	// The GBDT models' values must be exact (zero additivity error).
	for _, md := range diag.PerModel {
		switch md.Name {
		case NameXGBoost, NameLightGBM, NameCatBoost:
			if md.AdditivityErr > 1e-9 {
				t.Errorf("%s additivity error %v under TreeSHAP", md.Name, md.AdditivityErr)
			}
		}
	}
	// TreeSHAP and Kernel SHAP (sampled) must broadly agree on the GBDTs.
	kopts := fastDiagOpts()
	kopts.SHAPMode = shap.ModeKernel
	kdiag, err := ens.Diagnose(rec, kopts)
	if err != nil {
		t.Fatal(err)
	}
	for mi, md := range diag.PerModel {
		if md.Name != NameLightGBM {
			continue
		}
		for j := range md.Contributions {
			d := md.Contributions[j] - kdiag.PerModel[mi].Contributions[j]
			if d < 0 {
				d = -d
			}
			if d > 0.05 {
				t.Errorf("lightgbm phi[%d]: tree %.4f vs kernel %.4f",
					j, md.Contributions[j], kdiag.PerModel[mi].Contributions[j])
			}
		}
	}
}
