package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// setupRepeats is how many times a run sets the service up from scratch;
// setup_s is the median, and the last instance serves the workload.
const setupRepeats = 3

// deployment is one set-up service: its trained corpus and ensemble, the
// registry and job log on disk, and the running server.
type deployment struct {
	dur       time.Duration
	corpus    []*darshan.Record
	ens       *core.Ensemble
	modelsDir string
	joblogDir string
	srv       *serverProc
}

// setupOnce runs the public set-up path end to end: generate the seeded
// corpus, train the paper-budget ensemble, commit it as registry generation
// 1, load the corpus into the job log as already-incorporated history (the
// retrain window and the canary's history half draw from it), then start the
// server and wait for /readyz. The clock covers all of it; compilation
// happened before.
func setupOnce(seed int64, work, bin string, i int, flags func(models, jl string) []string) (*deployment, error) {
	dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
	d := &deployment{modelsDir: filepath.Join(dir, "models"), joblogDir: filepath.Join(dir, "joblog")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds := logdb.Generate(logdb.GenConfig{Jobs: corpusJobs, Seed: seedFor(seed, "corpus")})
	ens, _, err := core.TrainEnsemble(features.Build(ds), core.DefaultTrainOptions())
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if gen, err := core.OpenStore(d.modelsDir).Save(ens); err != nil || gen != 1 {
		return nil, fmt.Errorf("save generation: gen %d, %v", gen, err)
	}
	if err := preloadJobLog(d.joblogDir, ds.Records); err != nil {
		return nil, err
	}
	srv, err := startServer(bin, filepath.Join(dir, "server.log"), flags(d.modelsDir, d.joblogDir))
	if err != nil {
		return nil, err
	}
	d.dur = time.Since(t0)
	d.corpus, d.ens, d.srv = ds.Records, ens, srv
	return d, nil
}

func preloadJobLog(dir string, recs []*darshan.Record) error {
	jl, err := joblog.Open(dir, joblog.Options{})
	if err != nil {
		return fmt.Errorf("open job log: %w", err)
	}
	var last uint64
	for _, rec := range recs {
		res, err := jl.Append(rec)
		if err != nil {
			jl.Close()
			return fmt.Errorf("preload job log: %w", err)
		}
		last = res.Seq
	}
	if err := jl.Sync(); err != nil {
		jl.Close()
		return err
	}
	if err := jl.AdvanceCursor(last); err != nil {
		jl.Close()
		return err
	}
	return jl.Close()
}

// setup runs setupOnce setupRepeats times, stops all but the last server,
// and reports every set-up duration.
func setup(seed int64, work, bin string, flags func(models, jl string) []string) (*deployment, []float64, error) {
	var durs []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.srv.stop()
		}
		var err error
		if d, err = setupOnce(seed, work, bin, i, flags); err != nil {
			return nil, nil, err
		}
		durs = append(durs, d.dur.Seconds())
	}
	return d, durs, nil
}
