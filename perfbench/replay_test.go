package main

import (
	"context"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/shap"
)

// The replay must explain each model with the estimator the server uses:
// TreeSHAP for the three gbdt families, Kernel SHAP for mlp and tabnet, and
// with the same configuration, so its per-model numbers are bitwise the
// ones DiagnoseContext merges.
func TestReplayPicksServerEstimators(t *testing.T) {
	ds := logdb.Generate(logdb.GenConfig{Jobs: 200, Seed: 5})
	topts := core.DefaultTrainOptions()
	topts.Fast = true
	ens, _, err := core.TrainEnsemble(features.Build(ds), topts)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultDiagnoseOptions()
	want := map[string]string{
		core.NameXGBoost: "tree", core.NameLightGBM: "tree", core.NameCatBoost: "tree",
		core.NameMLP: "kernel", core.NameTabNet: "kernel",
	}
	for _, rec := range ds.Records[:3] {
		diag, err := ens.DiagnoseContext(context.Background(), rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := features.TransformRecord(rec)
		per := make([]shap.Explanation, len(ens.Models))
		for i, m := range ens.Models {
			att, kind, err := attributorFor(m, opts, m.PredictBatch)
			if err != nil {
				t.Fatal(err)
			}
			if kind != want[m.Name()] || isTreeName(m.Name()) != (kind == "tree") {
				t.Errorf("%s: replay picked %s SHAP, server uses %s", m.Name(), kind, want[m.Name()])
			}
			ex, err := att.Attribute(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			per[i] = ex
			md := diag.PerModel[i]
			if ex.FX != md.Predicted {
				t.Errorf("%s: replay f(x) %v, server %v", m.Name(), ex.FX, md.Predicted)
			}
			for j := range ex.Phi {
				if ex.Phi[j] != md.Contributions[j] {
					t.Errorf("%s: replay phi[%d] %v, server %v", m.Name(), j, ex.Phi[j], md.Contributions[j])
					break
				}
			}
		}
		for j, c := range mergeAverage(per, diag.Actual) {
			if !close9(c, diag.Average.Contributions[j]) {
				t.Errorf("re-merged contribution %d = %v, server %v", j, c, diag.Average.Contributions[j])
			}
		}
	}
}
