package tabnet

import (
	"fmt"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/nntrain"
)

// DefaultWarmDriftTol is the input-drift score above which warm starting is
// rejected: an average standardized mean shift of one sigma across features
// (or on the target) means the frozen standardizer — and the attention and
// transformer weights trained against it — no longer describe the data.
const DefaultWarmDriftTol = nntrain.DefaultWarmDriftTol

// CanWarmStart reports whether prev can seed a warm-started fit of cfg on
// x/y, and if not, why: the architecture (steps and widths) must match, the
// feature schema must match prev's standardizer, and the new data must not
// have drifted past the tolerance.
func CanWarmStart(prev *Model, cfg Config, x *linalg.Matrix, y []float64) (bool, string) {
	if prev == nil {
		return false, "no previous model"
	}
	def := DefaultConfig()
	want, have := cfg, prev.Config
	if want.Steps <= 0 {
		want.Steps = def.Steps
	}
	if want.DecisionDim <= 0 {
		want.DecisionDim = def.DecisionDim
	}
	if want.AttentionDim <= 0 {
		want.AttentionDim = def.AttentionDim
	}
	if want.Steps != have.Steps {
		return false, fmt.Sprintf("architecture changed: %d steps vs %d", want.Steps, have.Steps)
	}
	if want.DecisionDim != have.DecisionDim || want.AttentionDim != have.AttentionDim {
		return false, fmt.Sprintf("architecture changed: dims %d/%d vs %d/%d",
			want.DecisionDim, want.AttentionDim, have.DecisionDim, have.AttentionDim)
	}
	s := nntrain.Standardizer{Mean: prev.Mean, Std: prev.Std, YMean: prev.YMean, YStd: prev.YStd}
	return s.CheckWarm(x, y, cfg.WarmDriftTol)
}
