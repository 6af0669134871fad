package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/parallel"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// parityTol is the largest difference allowed between a served number and
// the same number computed in-process on the same generation and record.
const parityTol = 1e-9

func close9(a, b float64) bool {
	return math.Abs(a-b) <= parityTol*math.Max(1, math.Abs(b))
}

// checkDiagnosis compares one served diagnosis with the in-process one: all
// five models present and healthy, robust, not degraded, and every model
// output, weight and merged factor equal within parityTol.
func checkDiagnosis(got *webservice.DiagnosisResponse, want *core.Diagnosis) error {
	if len(got.Models) != 5 || got.Degraded || !got.Robust {
		return fmt.Errorf("served %d models, degraded=%v robust=%v; want 5, false, true",
			len(got.Models), got.Degraded, got.Robust)
	}
	if !close9(got.ActualMiBps, want.ActualMiBps) {
		return fmt.Errorf("actual_mibps %v, in-process %v", got.ActualMiBps, want.ActualMiBps)
	}
	for i, m := range got.Models {
		w := want.PerModel[i]
		if m.Name != w.Name || m.Error != "" || !close9(m.PredictedMiBps, w.PredictedMiBps) ||
			!close9(m.Weight, want.Weights[i]) {
			return fmt.Errorf("model %d: served %+v, in-process %s %v weight %v",
				i, m, w.Name, w.PredictedMiBps, want.Weights[i])
		}
	}
	if got.ClosestModel != want.PerModel[want.ClosestIndex].Name {
		return fmt.Errorf("closest model %s, in-process %s", got.ClosestModel, want.PerModel[want.ClosestIndex].Name)
	}
	if err := checkFactors("factors", got.Factors, want.TopFactors(0)); err != nil {
		return err
	}
	return checkFactors("bottlenecks", got.Bottlenecks, want.Bottlenecks())
}

func checkFactors(what string, got []webservice.FactorJSON, want []core.Factor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: served %d, in-process %d", what, len(got), len(want))
	}
	for i, f := range got {
		w := want[i]
		if f.Counter != w.Counter.String() || !close9(f.Contribution, w.Contribution) || !close9(f.Value, w.Value) {
			return fmt.Errorf("%s[%d]: served %+v, in-process %s %v %v", what, i, f, w.Counter, w.Contribution, w.Value)
		}
	}
	return nil
}

// oracle diagnoses records in-process on the generation that served them,
// loading each generation from the registry once.
type oracle struct {
	store *core.Store
	opts  core.DiagnoseOptions
	mu    sync.Mutex
	gens  map[uint64]*core.Ensemble
}

func newOracle(modelsDir string) *oracle {
	return &oracle{store: core.OpenStore(modelsDir), opts: core.DefaultDiagnoseOptions(), gens: map[uint64]*core.Ensemble{}}
}

func (o *oracle) ensemble(gen uint64) (*core.Ensemble, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.gens[gen]; ok {
		return e, nil
	}
	e, _, err := o.store.LoadGeneration(gen)
	if err != nil {
		return nil, fmt.Errorf("load generation %d: %w", gen, err)
	}
	o.gens[gen] = e
	return e, nil
}

// served is one diagnosis the server returned: the generation that produced
// it, the record it was asked about, and the decoded response.
type served struct {
	gen  uint64
	rec  *darshan.Record
	resp *webservice.DiagnosisResponse
	op   int // index of the operation that carried it
}

// verify recomputes every distinct (generation, record) pair once and checks
// every served response against it. It returns the indices of the operations
// that failed, with the first error.
func (o *oracle) verify(items []served) (map[int]bool, error) {
	type key struct {
		gen uint64
		rec *darshan.Record
	}
	var keys []key
	idx := map[key]int{}
	for _, it := range items {
		k := key{it.gen, it.rec}
		if _, ok := idx[k]; !ok {
			idx[k] = len(keys)
			keys = append(keys, k)
		}
	}
	want := make([]*core.Diagnosis, len(keys))
	errs := make([]error, len(keys))
	parallel.Each(len(keys), 0, func(i int) {
		ens, err := o.ensemble(keys[i].gen)
		if err != nil {
			errs[i] = err
			return
		}
		opts := o.opts
		opts.Parallelism = 1
		want[i], errs[i] = ens.DiagnoseContext(context.Background(), keys[i].rec, opts)
	})
	bad := map[int]bool{}
	var first error
	for _, it := range items {
		i := idx[key{it.gen, it.rec}]
		err := errs[i]
		if err == nil {
			err = checkDiagnosis(it.resp, want[i])
		}
		if err != nil {
			bad[it.op] = true
			if first == nil {
				first = fmt.Errorf("generation %d job %d: %w%s", it.gen, it.rec.JobID, err, o.matchingGeneration(it))
			}
		}
	}
	return bad, first
}

// matchingGeneration explains a parity failure: it names the registry
// generation whose in-process diagnosis the served body does match, if
// any. A body that matches another generation than its X-AIIO-Generation
// header names was computed by that generation but stamped with a stale
// one, which is what a request in flight across a hot-swap shows when the
// server stamps the header before it snapshots the ensemble.
func (o *oracle) matchingGeneration(it served) string {
	gens, err := o.store.Generations()
	if err != nil {
		return ""
	}
	for _, g := range gens {
		if g == it.gen {
			continue
		}
		ens, err := o.ensemble(g)
		if err != nil {
			continue
		}
		opts := o.opts
		opts.Parallelism = 1
		want, err := ens.DiagnoseContext(context.Background(), it.rec, opts)
		if err == nil && checkDiagnosis(it.resp, want) == nil {
			return fmt.Sprintf(" (the body matches generation %d: header stamped %d)", g, it.gen)
		}
	}
	return " (the body matches no registry generation)"
}

func decodeDiagnosis(body []byte) (*webservice.DiagnosisResponse, error) {
	var r webservice.DiagnosisResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode diagnosis: %w", err)
	}
	return &r, nil
}

func decodeBatch(body []byte) ([]*webservice.DiagnosisResponse, error) {
	var r []*webservice.DiagnosisResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	return r, nil
}
