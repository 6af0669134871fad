package mlp

import (
	"fmt"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/nntrain"
)

// DefaultWarmDriftTol is the input-drift score above which warm starting is
// rejected: an average standardized mean shift of one sigma across features
// (or on the target) means the frozen standardizer — and with it every
// layer trained against it — no longer describes the data.
const DefaultWarmDriftTol = nntrain.DefaultWarmDriftTol

// CanWarmStart reports whether prev can seed a warm-started fit of cfg on
// x/y, and if not, why: the architecture must match (same hidden widths),
// the feature schema must match (same input width as prev's standardizer),
// and the new data must not have drifted past the tolerance.
func CanWarmStart(prev *Model, cfg Config, x *linalg.Matrix, y []float64) (bool, string) {
	if prev == nil {
		return false, "no previous model"
	}
	hidden := cfg.Hidden
	if len(hidden) == 0 {
		hidden = DefaultConfig().Hidden
	}
	ph := prev.Config.Hidden
	if len(ph) == 0 {
		ph = DefaultConfig().Hidden
	}
	if len(hidden) != len(ph) {
		return false, fmt.Sprintf("architecture changed: %d hidden layers vs %d", len(hidden), len(ph))
	}
	for i := range hidden {
		if hidden[i] != ph[i] {
			return false, fmt.Sprintf("architecture changed: hidden[%d]=%d vs %d", i, hidden[i], ph[i])
		}
	}
	s := nntrain.Standardizer{Mean: prev.Mean, Std: prev.Std, YMean: prev.YMean, YStd: prev.YStd}
	return s.CheckWarm(x, y, cfg.WarmDriftTol)
}
