package tabnet

import (
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
)

var (
	frameOnce sync.Once
	frame     *features.Frame
)

// fixtureFrame is the 900-job simulated logdb frame (seed 11) that
// internal/core's training benchmarks and tests fit on.
func fixtureFrame() *features.Frame {
	frameOnce.Do(func() {
		frame = features.Build(logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 11}))
	})
	return frame
}

// BenchmarkTrainPaths fits DefaultConfig through the production step and
// through the scalar reference step on the fixture frame's 675/225 split, at
// the budget of core's BenchmarkTrainPerFamily/tabnet (10 epochs, early
// stopping off so every iteration does identical work). The reference
// subbench is the BENCH_training.json baseline row.
func BenchmarkTrainPaths(b *testing.B) {
	tr, ev := fixtureFrame().Split(1, 0.75)
	for _, p := range []struct {
		name string
		step stepper
	}{{"fast", fastStep}, {"reference", referenceStep}} {
		b.Run(p.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Epochs = 10
			cfg.EarlyStoppingRounds = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := train(cfg, tr.X, tr.Y, ev.X, ev.Y, nil, p.step); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
