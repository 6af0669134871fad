package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/shap"
	"github.com/hpc-repro/aiio/internal/tune"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// The traced run replays a workload's inputs in-process, in the order the
// server answered them, and times each layer's public functions around the
// calls the handler makes:
//
//   - diagnosis: webservice.ServeHTTP on a Server.Handler() wired like the
//     binary's defaults (a black box), then its children one by one —
//     darshan.ParseLog, Ensemble.DiagnoseContext at the server's
//     parallelism (cold answers only), tune.Advise, JSON encode. The gap
//     between ServeHTTP and the children is the handler's own time
//     (admission, coalesce window, cache, glue).
//   - explanation (cold answers): each model's shap.ForModel(...).Attribute
//     sequentially, with the core.TreeModel dispatch the server uses, then
//     the Eq. 6–8 merge. Only the shap.PredictFunc is wrapped: wrapping a
//     core.Model would hide the gbdt adapter from core.TreeModel and move
//     the tree models onto Kernel SHAP.
//   - ingest: ParseDatasetLenient → Validate → joblog Append → Sync →
//     drift Observe.
//   - retrain, where the served run triggered one (one probe cycle after
//     the ingest replay otherwise): RunIncremental → Store.Load →
//     AdoptGeneration, plus a per-family fit breakdown.
//
// A layer a workload's own inputs never reach is measured on a small seeded
// probe (hot-repeat replays 16 of its jobs cold before warming the rest;
// cold-distinct repeats 8 of its jobs as cache hits; both replay one
// retrain cycle's worth of ingest batches and the retrain), so every
// per-layer metric has samples on every workload.

// Replay caps keep a traced run's extra time bounded.
const (
	replayColdSingles = 40
	replayHotSingles  = 600
	replayExplain     = 24
	replayBatches     = 24 // cold-distinct replays replayColdBatches: each is 16 cold jobs
	replayColdBatches = 4
	replayBatchEngine = 2
	hotProbes         = 16
	coldHitProbes     = 8
	kernelAddTol      = 1e-6 // the shap package tests' Kernel SHAP local-accuracy bound
	treeAddTol        = 1e-9 // the core tests' TreeSHAP local-accuracy bound
)

type traceResult struct {
	metrics  map[string]metric
	checkErr []string
}

type replayer struct {
	r      *run
	tr     tracer
	ctx    context.Context
	cancel context.CancelFunc
	ws     *webservice.Server
	h      http.Handler
	opts   core.DiagnoseOptions
	store  *core.Store
	jl     *joblog.Store
	mon    *drift.Monitor
	inc    core.IncrementalOptions
	req    int

	diags     map[string]*core.Diagnosis // (generation, job) → in-process diagnosis
	serveHit  []float64                  // µs
	serveCold []float64                  // ms
	allocHit  []float64
	allocCold []float64
	allocDiag []float64
	adviseHit []float64 // tune.Advise on cache hits, µs
	handler   []float64 // ServeHTTP minus replayed children, µs, timed singles
	serveAll  []float64 // ServeHTTP of the replayed timed singles, ms
	kernelN   int
	kernelEx  int
	rows      map[string][]float64
	predMS    map[string][]float64
	predNS    map[string][]float64
	solveMS   map[string][]float64
	coalesced []float64
	explained int
	engineRe  int
	trained   bool
	checkErr  []string
}

func (p *replayer) failf(format string, a ...any) {
	p.checkErr = append(p.checkErr, fmt.Sprintf(format, a...))
}

// newReplayer builds the in-process service from the same public set-up
// path as the served run, in its own directory.
func newReplayer(r *run) (*replayer, error) {
	dir := filepath.Join(r.work, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &replayer{r: r, opts: core.DefaultDiagnoseOptions(), diags: map[string]*core.Diagnosis{},
		rows: map[string][]float64{}, predMS: map[string][]float64{}, predNS: map[string][]float64{},
		solveMS: map[string][]float64{}}
	// The binary's default -request-timeout puts a deadline on every
	// request context, which makes the explainers evaluate in chunks; the
	// replay's context carries one too so it runs the same code.
	p.ctx, p.cancel = context.WithTimeout(context.Background(), time.Hour)
	p.store = core.OpenStore(filepath.Join(dir, "models"))
	if _, err := p.store.Save(r.d.ens); err != nil {
		return nil, err
	}
	if err := preloadJobLog(filepath.Join(dir, "joblog"), r.d.corpus); err != nil {
		return nil, err
	}
	jl, err := joblog.Open(filepath.Join(dir, "joblog"), joblog.Options{})
	if err != nil {
		return nil, err
	}
	p.jl = jl
	ens, rep, err := p.store.Load()
	if err != nil {
		return nil, err
	}
	ws := webservice.NewServer(ens, p.opts)
	ws.RequestTimeout = 2 * time.Minute
	ws.Store = p.store
	ws.SetGeneration(rep)
	ws.CoalesceWindow = webservice.DefaultCoalesceWindow
	ws.CoalesceMax = webservice.DefaultCoalesceMax
	ws.Admission = admission.NewController(admission.Config{
		MaxInflight: admission.DefaultMaxInflight,
		QueueDepth:  admission.DefaultQueueDepth,
		RetryAfter:  admission.DefaultRetryAfter,
	})
	ws.Breakers = admission.NewBreakerSet(admission.BreakerConfig{Threshold: 5, Cooldown: 30 * time.Second})
	p.mon = drift.New(drift.Config{PSIThreshold: 5, ErrorRatio: 1000})
	topts := core.DefaultTrainOptions()
	topts.WarmStart = true
	topts.WarmBudgetFrac = core.DefaultWarmBudgetFrac
	p.inc = core.IncrementalOptions{MiniBatch: 512, Window: 20000, Train: topts}
	if r.workload == "ingest-retrain" {
		// The binary with -drift-psi: the monitor sees diagnoses'
		// advisories, and retrains are canary-gated.
		ws.Drift = p.mon
		p.inc.Holdout = 64
		p.inc.Gate = drift.Gate(drift.GateConfig{}, ws.ServingEnsemble)
		p.inc.Reference = func(training []*darshan.Record, verdict *core.CanaryRecord) []byte {
			ref := drift.BuildReference(training)
			if verdict != nil {
				ref.BaselineRMSE = verdict.CandidateRMSE
			}
			data, _ := ref.Marshal()
			return data
		}
	}
	p.ws, p.h = ws, ws.Handler()
	return p, nil
}

// serve runs one request through the in-process handler inside a span,
// counting its heap allocations.
func (p *replayer) serve(name, path string, body []byte, req int) (*httptest.ResponseRecorder, time.Duration, float64) {
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := p.tr.begin(name, -1, req)
	p.h.ServeHTTP(rec, hr)
	p.tr.end(id)
	runtime.ReadMemStats(&m1)
	if rec.Code != http.StatusOK {
		p.failf("replayed %s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, p.tr.spans[id].dur(), float64(m1.Mallocs - m0.Mallocs)
}

func (p *replayer) serving() (*core.Ensemble, uint64) {
	ens := p.ws.ServingEnsemble()
	return ens, p.ws.GenerationReport().Generation
}

// diagnosis returns the in-process diagnosis of job j on the serving
// generation, computing it (untimed) on first use.
func (p *replayer) diagnosis(j int) (*core.Diagnosis, error) {
	ens, gen := p.serving()
	key := fmt.Sprintf("%d/%d", gen, j)
	if d, ok := p.diags[key]; ok {
		return d, nil
	}
	d, err := ens.DiagnoseContext(p.ctx, p.r.in.jobs[j].rec, p.opts)
	if err != nil {
		return nil, err
	}
	p.diags[key] = d
	return d, nil
}

// single replays one single-job diagnosis: ServeHTTP, then its children.
// timed marks the served run's timed requests (not warm-ups or probes).
func (p *replayer) single(j int, timed bool) error {
	p.req++
	req := p.req
	body := p.r.in.jobs[j].body
	rec, d, allocs := p.serve("webservice.ServeHTTP", "/api/v1/diagnose", body, req)
	hit := rec.Header().Get("X-AIIO-Cache") == "hit"
	if c := rec.Header().Get("X-AIIO-Coalesced"); c != "" {
		if n, err := strconv.Atoi(c); err == nil {
			p.coalesced = append(p.coalesced, float64(n))
		}
	}
	if hit {
		p.serveHit, p.allocHit = append(p.serveHit, us(d)), append(p.allocHit, allocs)
	} else {
		p.serveCold, p.allocCold = append(p.serveCold, ms(d)), append(p.allocCold, allocs)
	}

	ens, _ := p.serving()
	var diag *core.Diagnosis
	var err error
	if hit {
		// The server read this diagnosis from its cache; the replay looks
		// it up (or computes it once) outside the timed spans.
		if diag, err = p.diagnosis(j); err != nil {
			return err
		}
	}
	root := p.tr.begin("replay", -1, req)
	s := p.tr.begin("darshan.ParseLog", root, req)
	parsed, err := darshan.ParseLog(bytes.NewReader(body))
	p.tr.end(s)
	if err != nil {
		return err
	}
	if !hit {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s = p.tr.begin("core.DiagnoseContext", root, req)
		diag, err = ens.DiagnoseContext(p.ctx, parsed, p.opts)
		p.tr.end(s)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		p.allocDiag = append(p.allocDiag, float64(m1.Mallocs-m0.Mallocs))
	}
	s = p.tr.begin("tune.Advise", root, req)
	_, _ = tune.New(ens).Advise(diag, 1.05)
	p.tr.end(s)
	if hit {
		p.adviseHit = append(p.adviseHit, us(p.tr.spans[s].dur()))
	}
	var resp webservice.DiagnosisResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("decode replayed answer: %w", err)
	}
	var buf bytes.Buffer
	s = p.tr.begin("webservice.encode", root, req)
	err = json.NewEncoder(&buf).Encode(&resp)
	p.tr.end(s)
	if err != nil {
		return err
	}
	p.tr.end(root)
	children := time.Duration(0)
	for _, sp := range p.tr.spans[root+1:] {
		if sp.parent == root {
			children += sp.dur()
		}
	}
	if timed {
		p.handler = append(p.handler, us(d-children))
		p.serveAll = append(p.serveAll, ms(d))
	}
	if !hit && p.explained < replayExplain {
		p.explained++
		return p.explain(req, parsed, diag, ens)
	}
	return nil
}

// isTreeName reports whether the server explains model name with TreeSHAP:
// the three gbdt families.
func isTreeName(name string) bool {
	return name == core.NameXGBoost || name == core.NameLightGBM || name == core.NameCatBoost
}

// attributorFor builds the estimator the server uses for one model, with
// its PredictFunc wrapped by f: core.TreeModel picks TreeSHAP for a gbdt
// model and shap.ForModel falls back to Kernel SHAP otherwise.
func attributorFor(m core.Model, opts core.DiagnoseOptions, f shap.PredictFunc) (shap.Attributor, string, error) {
	tree, _ := core.TreeModel(m)
	att, err := shap.ForModel(f, tree, nil, opts.SHAPMode, opts.SHAP)
	if err != nil {
		return nil, "", err
	}
	kind := "kernel"
	if _, ok := att.(*shap.TreeExplainer); ok {
		kind = "tree"
	}
	return att, kind, nil
}

// explain replays one cold diagnosis model by model and re-merges it.
func (p *replayer) explain(req int, rec *darshan.Record, diag *core.Diagnosis, ens *core.Ensemble) error {
	root := p.tr.begin("explain", -1, req)
	x := features.TransformRecord(rec)
	per := make([]shap.Explanation, len(ens.Models))
	for i, m := range ens.Models {
		var sid, rows int
		var pred time.Duration
		f := func(X *linalg.Matrix) []float64 {
			ps := p.tr.begin(m.Name()+".PredictBatch", sid, req)
			out := m.PredictBatch(X)
			p.tr.end(ps)
			pred += p.tr.spans[ps].dur()
			rows += X.Rows
			return out
		}
		att, kind, err := attributorFor(m, p.opts, f)
		if err != nil {
			return err
		}
		if (kind == "tree") != isTreeName(m.Name()) {
			p.failf("model %s explained with %s SHAP in the replay", m.Name(), kind)
		}
		name := "shap." + kind + "." + m.Name()
		sid = p.tr.begin(name, root, req)
		ex, err := att.Attribute(p.ctx, x)
		p.tr.end(sid)
		if err != nil {
			return err
		}
		per[i] = ex
		tol := treeAddTol
		if kind == "kernel" {
			tol = kernelAddTol
			p.kernelN++
			if ex.Exact {
				p.kernelEx++
			}
			total := p.tr.spans[sid].dur()
			p.rows[m.Name()] = append(p.rows[m.Name()], float64(rows))
			p.predMS[m.Name()] = append(p.predMS[m.Name()], ms(pred))
			p.predNS[m.Name()] = append(p.predNS[m.Name()], float64(pred)/float64(rows))
			p.solveMS[m.Name()] = append(p.solveMS[m.Name()], ms(total-pred))
		}
		if e := ex.AdditivityError(); e > tol {
			p.failf("%s: additivity error %g over %g", m.Name(), e, tol)
		}
		for j, v := range x {
			if v == 0 && ex.Phi[j] != 0 {
				p.failf("%s: zero counter %s got attribution %g", m.Name(), darshan.CounterID(j), ex.Phi[j])
			}
		}
		md := diag.PerModel[i]
		if md.Name != m.Name() || md.Predicted != ex.FX || len(md.Contributions) != len(ex.Phi) {
			p.failf("%s: replayed explanation differs from DiagnoseContext's", m.Name())
		} else {
			for j := range ex.Phi {
				if ex.Phi[j] != md.Contributions[j] {
					p.failf("%s: replayed contribution %d differs from DiagnoseContext's", m.Name(), j)
					break
				}
			}
		}
	}
	s := p.tr.begin("core.merge", root, req)
	avg := mergeAverage(per, features.Transform(features.Sanitize(rec.PerfMiBps)))
	p.tr.end(s)
	p.tr.end(root)
	for j, c := range avg {
		if !close9(c, diag.Average.Contributions[j]) {
			p.failf("re-merged contribution %d is %g, DiagnoseContext's %g", j, c, diag.Average.Contributions[j])
			break
		}
	}
	return nil
}

// mergeAverage is the Eq. 7–8 Average Method over healthy per-model
// explanations: accuracy weights r_m = Σ|ŷ−y| / |ŷ_m−y| normalised to sum
// to one, then the weighted sum of contributions. core does not export its
// merge, so the replay times this copy and checks it against
// DiagnoseContext's result.
func mergeAverage(per []shap.Explanation, actual float64) []float64 {
	const eps = 1e-9
	errs := make([]float64, len(per))
	total := 0.0
	for i, ex := range per {
		errs[i] = math.Abs(ex.FX-actual) + eps
		total += errs[i]
	}
	r := make([]float64, len(per))
	sumR := 0.0
	for i := range per {
		r[i] = total / errs[i]
		sumR += r[i]
	}
	avg := make([]float64, len(per[0].Phi))
	for i, ex := range per {
		w := r[i] / sumR
		for j, c := range ex.Phi {
			avg[j] += w * c
		}
	}
	return avg
}

// batch replays one batch diagnosis: ServeHTTP, ParseDataset and, for the
// first few, DiagnoseBatchContext over the same records.
func (p *replayer) batch(idx []int) error {
	p.req++
	req := p.req
	body := batchBody(p.r.in.jobs, idx)
	p.serve("webservice.ServeHTTP.batch", "/api/v1/diagnose/batch", body, req)
	root := p.tr.begin("batch", -1, req)
	s := p.tr.begin("darshan.ParseDataset", root, req)
	ds, err := darshan.ParseDataset(bytes.NewReader(body))
	p.tr.end(s)
	if err != nil {
		return err
	}
	if p.engineRe < replayBatchEngine {
		p.engineRe++
		ens, _ := p.serving()
		s = p.tr.begin("core.DiagnoseBatchContext", root, req)
		_, err = ens.DiagnoseBatchContext(p.ctx, ds.Records, p.opts)
		p.tr.end(s)
	}
	p.tr.end(root)
	return err
}

// ingest replays one ingest batch through the handler's layer calls and
// checks the counts against the plan.
func (p *replayer) ingest(b ingestBatch) error {
	p.req++
	req := p.req
	root := p.tr.begin("ingest", -1, req)
	s := p.tr.begin("darshan.ParseDatasetLenient", root, req)
	ds, rejected, err := darshan.ParseDatasetLenient(bytes.NewReader(b.body))
	p.tr.end(s)
	if err != nil {
		return err
	}
	for _, re := range rejected {
		if err := p.jl.QuarantineNote(re.Error()); err != nil {
			return err
		}
	}
	accepted, dups := 0, 0
	var observed []*darshan.Record
	for _, rec := range ds.Records {
		s = p.tr.begin("darshan.Validate", root, req)
		verr := rec.Validate()
		p.tr.end(s)
		if verr != nil {
			p.failf("replayed ingest: fresh record failed validation: %v", verr)
			continue
		}
		s = p.tr.begin("joblog.Append", root, req)
		res, err := p.jl.Append(rec)
		p.tr.end(s)
		if err != nil {
			return err
		}
		if res.Duplicate {
			dups++
		} else {
			accepted++
			observed = append(observed, rec)
		}
	}
	if accepted > 0 {
		s = p.tr.begin("joblog.Sync", root, req)
		err = p.jl.Sync()
		p.tr.end(s)
		if err != nil {
			return err
		}
	}
	for _, rec := range observed {
		s = p.tr.begin("drift.Observe", root, req)
		p.mon.Observe(rec)
		p.tr.end(s)
	}
	p.tr.end(root)
	if accepted != b.fresh || dups != b.dups || len(rejected) != b.invalid {
		p.failf("replayed ingest: accepted %d duplicates %d rejected %d, want %d %d %d",
			accepted, dups, len(rejected), b.fresh, b.dups, b.invalid)
	}
	return nil
}

// retrain replays one retrain cycle, and on the first one times each
// family's fit and a registry commit on their own.
func (p *replayer) retrain() error {
	p.req++
	req := p.req
	prev, _ := p.serving()
	root := p.tr.begin("retrain", -1, req)
	s := p.tr.begin("core.RunIncremental", root, req)
	rep, err := core.RunIncremental(p.ctx, p.jl, p.store, p.inc)
	p.tr.end(s)
	if err != nil {
		return err
	}
	s = p.tr.begin("core.Store.Load", root, req)
	ens, lrep, err := p.store.Load()
	p.tr.end(s)
	if err != nil {
		return err
	}
	if lrep.Generation != rep.Generation {
		return fmt.Errorf("loaded generation %d after committing %d", lrep.Generation, rep.Generation)
	}
	s = p.tr.begin("webservice.AdoptGeneration", root, req)
	err = p.ws.AdoptGeneration(ens, lrep)
	p.tr.end(s)
	p.tr.end(root)
	if err != nil {
		return err
	}
	if p.ws.Drift != nil {
		if data, err := p.store.Reference(lrep.Generation); err == nil && data != nil {
			if ref, err := drift.ParseReference(data); err == nil {
				p.mon.SetReference(ref)
			}
		}
	}
	if p.trained {
		return nil
	}
	p.trained = true
	// The per-family breakdown refits on the job log's whole contents
	// (history and the drained backlog), warm from the previous generation
	// as the retrain was; RunIncremental's own training set is internal.
	var recs []*darshan.Record
	if err := p.jl.Scan(func(_ uint64, rec *darshan.Record) bool { recs = append(recs, rec); return true }); err != nil {
		return err
	}
	frame := features.Build(&darshan.Dataset{Records: recs})
	root = p.tr.begin("train", -1, req)
	for _, name := range core.ModelNames() {
		opts := p.inc.Train
		opts.Models = []string{name}
		opts.WarmFrom = prev
		s = p.tr.begin("core.train."+name, root, req)
		_, _, err := core.TrainEnsembleContext(p.ctx, frame, opts)
		p.tr.end(s)
		if err != nil {
			return err
		}
	}
	scratch := core.OpenStore(filepath.Join(p.r.work, "replay", "savebench"))
	s = p.tr.begin("core.Store.SaveDetailed", root, req)
	_, err = scratch.SaveDetailed(ens, nil)
	p.tr.end(s)
	p.tr.end(root)
	return err
}

// replay runs the traced replay of r's inputs and computes the per-layer
// metrics.
func replay(r *run) (*traceResult, error) {
	p, err := newReplayer(r)
	if err != nil {
		return nil, err
	}
	defer p.cancel()
	defer p.jl.Close()
	timedSingle := map[*op]bool{}
	for _, o := range r.diagOps {
		timedSingle[o] = true
	}
	if r.workload == "hot-repeat" {
		for j := 0; j < hotProbes; j++ {
			if err := p.single(j, false); err != nil {
				return nil, err
			}
		}
	}
	singles, batches := 0, 0
	batchCap := replayBatches
	if r.workload == "cold-distinct" {
		batchCap = replayColdBatches
	}
	if r.workload == "hot-repeat" {
		// The warm-up batches fill the cache the timed singles hit, so all
		// of them replay.
		batchCap += hotSet / batchJobs
	}
	capSingles := replayColdSingles
	if r.workload != "cold-distinct" {
		capSingles = replayHotSingles
	}
	for _, o := range r.ops {
		var err error
		switch o.kind {
		case "diagnose":
			if singles >= capSingles {
				continue
			}
			singles++
			err = p.single(o.jobs[0], timedSingle[o])
		case "batch":
			if batches >= batchCap {
				continue
			}
			batches++
			err = p.batch(o.jobs)
		case "ingest":
			if err = p.ingest(r.in.plan[o.ingest]); err != nil {
				break
			}
			var ir webservice.IngestResponse
			if o.rep != nil && json.Unmarshal(o.rep.body, &ir) == nil && ir.RetrainTriggered {
				err = p.retrain()
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if r.workload == "cold-distinct" {
		for k := 0; k < coldHitProbes; k++ {
			if err := p.single(r.diagOps[k].jobs[0], false); err != nil {
				return nil, err
			}
		}
	}
	if !p.trained {
		// cold-distinct and hot-repeat ship no jobs: one cycle's worth of
		// seeded ingest batches and one retrain are their probe.
		for _, b := range ingestPlan(r.seed, r.d.corpus, cycleBatches, ingestBatchJobs, ingestDups, ingestInvalid) {
			if err := p.ingest(b); err != nil {
				return nil, err
			}
		}
		if err := p.retrain(); err != nil {
			return nil, err
		}
	}
	return p.report()
}

// report computes the per-layer metrics and prints the span summary.
func (p *replayer) report() (*traceResult, error) {
	rows := summarize(p.tr.spans)
	fmt.Printf("traced replay of %s (per-layer spans; share = layer time over its root's time)\n", p.r.workload)
	printSummary(os.Stdout, rows)
	byName := map[string][]float64{}
	for _, s := range p.tr.spans {
		byName[s.name] = append(byName[s.name], float64(s.dur()))
	}
	med := func(name string, unit time.Duration) float64 { return median(byName[name]) / float64(unit) }
	perJob := func(name string, unit time.Duration, jobs int) float64 { return med(name, unit) / float64(jobs) }

	hits, misses := cacheCounts(p.r.ops)
	shed := 0
	var coal []float64
	for _, o := range p.r.ops {
		if o.rep == nil {
			continue
		}
		if o.rep.status == http.StatusTooManyRequests {
			shed++
		}
		if c := o.rep.header.Get("X-AIIO-Coalesced"); c != "" {
			if n, err := strconv.Atoi(c); err == nil {
				coal = append(coal, float64(n))
			}
		}
	}
	if len(coal) == 0 {
		// No cold single-job answer in the served run (hot-repeat): the
		// replay's cold probes are the only coalesced answers.
		coal = p.coalesced
	}
	clientP50 := percentile(latencies(p.r.diag), 0.5)
	m := map[string]metric{
		"darshan.ParseLog.us":                    {med("darshan.ParseLog", time.Microsecond), "us"},
		"darshan.ParseDataset.us_per_job":        {perJob("darshan.ParseDataset", time.Microsecond, batchJobs), "us"},
		"darshan.ParseDatasetLenient.us_per_job": {perJob("darshan.ParseDatasetLenient", time.Microsecond, ingestBatchJobs), "us"},
		"webservice.ServeHTTP.hit.us":            {median(p.serveHit), "us"},
		"webservice.ServeHTTP.hit.allocs":        {median(p.allocHit), "count"},
		"webservice.ServeHTTP.cold.ms":           {median(p.serveCold), "ms"},
		"webservice.ServeHTTP.cold.allocs":       {median(p.allocCold), "count"},
		"webservice.encode.us":                   {med("webservice.encode", time.Microsecond), "us"},
		"webservice.handler.self_us":             {median(p.handler), "us"},
		"http.overhead_us":                       {1000 * (clientP50 - percentile(p.serveAll, 0.5)), "us"},
		"webservice.cache.hit_ratio":             {float64(hits) / float64(hits+misses), "ratio"},
		"webservice.coalesce.mean_batch":         {mean(coal), "count"},
		"admission.shed":                         {float64(shed), "count"},
		"core.DiagnoseContext.ms":                {med("core.DiagnoseContext", time.Millisecond), "ms"},
		"core.DiagnoseContext.allocs":            {median(p.allocDiag), "count"},
		"core.merge.us":                          {med("core.merge", time.Microsecond), "us"},
		"core.DiagnoseBatchContext.ms_per_job":   {perJob("core.DiagnoseBatchContext", time.Millisecond, batchJobs), "ms"},
		"shap.kernel.exact_share":                {float64(p.kernelEx) / float64(p.kernelN), "ratio"},
		"tune.Advise.us":                         {med("tune.Advise", time.Microsecond), "us"},
		"joblog.Append.us":                       {med("joblog.Append", time.Microsecond), "us"},
		"joblog.Sync.ms":                         {med("joblog.Sync", time.Millisecond), "ms"},
		"drift.Observe.us":                       {med("drift.Observe", time.Microsecond), "us"},
		"core.RunIncremental.s":                  {med("core.RunIncremental", time.Second), "s"},
		"core.Store.SaveDetailed.ms":             {med("core.Store.SaveDetailed", time.Millisecond), "ms"},
		"core.Store.Load.ms":                     {med("core.Store.Load", time.Millisecond), "ms"},
		"webservice.AdoptGeneration.ms":          {med("webservice.AdoptGeneration", time.Millisecond), "ms"},
		"trace.root_p50_ms":                      {percentile(p.serveAll, 0.5), "ms"},
	}
	for _, name := range []string{core.NameXGBoost, core.NameLightGBM, core.NameCatBoost} {
		m["shap.tree."+name+".us"] = metric{med("shap.tree."+name, time.Microsecond), "us"}
	}
	for _, name := range []string{core.NameMLP, core.NameTabNet} {
		m["shap.kernel."+name+".ms"] = metric{med("shap.kernel."+name, time.Millisecond), "ms"}
		m["shap.kernel."+name+".solve_ms"] = metric{median(p.solveMS[name]), "ms"}
		m["shap.kernel."+name+".rows"] = metric{median(p.rows[name]), "count"}
		m[name+".PredictBatch.ms"] = metric{median(p.predMS[name]), "ms"}
		m[name+".PredictBatch.ns_per_row"] = metric{median(p.predNS[name]), "ns"}
	}
	for _, name := range core.ModelNames() {
		m["core.train."+name+".s"] = metric{med("core.train."+name, time.Second), "s"}
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no samples on %s", name, p.r.workload)
		}
	}
	p.printProfile(rows, clientP50, m)
	return &traceResult{metrics: m, checkErr: p.checkErr}, nil
}

// printProfile prints the per-layer metrics and the decomposition of the
// untraced client p50 into replayed layers and the two named residuals.
func (p *replayer) printProfile(rows []layerRow, clientP50 float64, m map[string]metric) {
	share := func(root, name string) float64 {
		for _, r := range rows {
			if r.root == root && r.name == name {
				return r.share
			}
		}
		return 0
	}
	fmt.Println("per-layer metrics:")
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-42s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	kernel := share("explain", "shap.kernel.mlp") + share("explain", "shap.kernel.tabnet")
	fmt.Printf("explanation profile: Kernel SHAP (mlp+tabnet) is %.1f%% of a cold job's sequential explanation time\n", 100*kernel)
	advise := median(p.adviseHit) / m["webservice.ServeHTTP.hit.us"].Value
	fmt.Printf("hit profile: tune.Advise p50 is %.1f%% of an in-process cache hit's ServeHTTP p50\n", 100*advise)
	late := make([]float64, len(p.r.diag))
	for i, t := range p.r.diag {
		late[i] = us(t.lateness())
	}
	fmt.Printf("client diag p50 %.4f ms = in-process ServeHTTP p50 %.4f ms (traced root) + http.overhead %.1f us (generator lateness p50 %.1f us of it); handler self (ServeHTTP minus replayed children) p50 %.1f us\n",
		clientP50, m["trace.root_p50_ms"].Value, m["http.overhead_us"].Value, median(late), m["webservice.handler.self_us"].Value)
}
