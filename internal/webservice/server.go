// Package webservice puts AIIO into practice the way Section 3.4 / Fig. 17
// describes: an HTTP service that loads pre-trained performance functions
// from a model registry, accepts Darshan log uploads, and returns the merged
// job-level diagnosis as JSON. The service can also accept new pre-trained
// models at runtime, matching the paper's note that the web service "may
// accept new models from users".
package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/tune"
)

// FactorJSON is one counter contribution in a response.
type FactorJSON struct {
	Counter      string  `json:"counter"`
	Contribution float64 `json:"contribution"`
	Value        float64 `json:"value"`
}

// ModelResult is one performance function's output for the job. A model
// that failed (panic, non-finite output) carries its error instead of a
// prediction and a zero weight.
type ModelResult struct {
	Name           string  `json:"name"`
	PredictedMiBps float64 `json:"predicted_mibps"`
	Weight         float64 `json:"weight"`
	Error          string  `json:"error,omitempty"`
}

// DiagnosisResponse is the JSON body of POST /api/v1/diagnose.
type DiagnosisResponse struct {
	App          string        `json:"app"`
	ActualMiBps  float64       `json:"actual_mibps"`
	Models       []ModelResult `json:"models"`
	ClosestModel string        `json:"closest_model"`
	// Factors are the merged (Average Method) contributions, by |impact|.
	Factors []FactorJSON `json:"factors"`
	// Bottlenecks are the negative factors, most negative first.
	Bottlenecks []FactorJSON `json:"bottlenecks"`
	Robust      bool         `json:"robust"`
	// Degraded is true when one or more models failed and the merge covers
	// only the surviving subset; SkippedModels names the casualties.
	Degraded      bool     `json:"degraded,omitempty"`
	SkippedModels []string `json:"skipped_models,omitempty"`
	// Recommendations are the tuning advisor's ranked suggestions with
	// model-predicted gains.
	Recommendations []RecommendationJSON `json:"recommendations,omitempty"`
	// AdvisoryError is set when the diagnosis succeeded but the tuning
	// advisor failed; the diagnosis above is still complete and valid.
	AdvisoryError string `json:"advisory_error,omitempty"`
	// Advisories are per-claim provenance statements from the model
	// lifecycle (which generation served, which canary gate admitted it,
	// which counters have drifted since training) — the trust context for
	// the diagnosis above. See lifecycle.go.
	Advisories []AdvisoryJSON `json:"advisories,omitempty"`
}

// RecommendationJSON is one automatic tuning recommendation.
type RecommendationJSON struct {
	Action         string  `json:"action"`
	Description    string  `json:"description"`
	PredictedMiBps float64 `json:"predicted_mibps"`
	PredictedGain  float64 `json:"predicted_gain"`
}

// ModelInfo describes one registered model.
type ModelInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// DefaultMaxBody caps a single-log request body when Server.MaxBody is 0.
// Batch and model-upload endpoints get 4× the single-log cap.
const DefaultMaxBody = 16 << 20

// Server is the AIIO web service.
type Server struct {
	// RequestTimeout, when > 0, is the per-request diagnosis deadline. A
	// request whose SHAP work outlives it is cancelled cooperatively and
	// answered with a structured 503 instead of holding a worker forever.
	RequestTimeout time.Duration
	// MaxBody caps the accepted request body in bytes (DefaultMaxBody when
	// 0). An oversized upload is refused with 413.
	MaxBody int64
	// CacheSize bounds the LRU cache of diagnosis results (DefaultCacheSize
	// when 0, negative disables caching). A cached entry is keyed by the
	// model-set version and the job's full identity, so repeat diagnoses of
	// the same log skip the SHAP work entirely; every model upload
	// invalidates the whole cache. Set before the first request.
	CacheSize int
	// Admission, when non-nil, gates the diagnosis endpoints with bounded
	// per-endpoint concurrency: excess load is shed with a structured 429
	// and a Retry-After hint instead of queueing without bound. Set before
	// the first request.
	Admission *admission.Controller
	// Breakers, when non-nil, puts a circuit breaker in front of each
	// model: a model failing repeatedly is taken out of rotation (the
	// diagnosis degrades over the survivors, like the PR 2 degraded path)
	// until its cooldown probe succeeds. When every model's breaker is
	// open, diagnoses answer 503 with the X-AIIO-Breaker: open header.
	Breakers *admission.BreakerSet
	// Store, when non-nil, persists each accepted model upload as a new
	// registry generation, so a validated hot-swap survives a restart.
	Store *core.Store
	// JobLog, when non-nil, enables POST /api/v1/jobs: streaming job ingest
	// into the durable WAL, deduplicated by job hash so client retries are
	// idempotent. Set before the first request.
	JobLog *joblog.Store
	// RetrainThreshold, when > 0 with a JobLog and Retrainer wired in,
	// triggers a background incremental retrain once the ingest backlog
	// reaches this many jobs.
	RetrainThreshold int
	// Retrainer runs one incremental retraining cycle (typically
	// core.RunIncremental against the JobLog and Store) and returns the
	// freshly committed ensemble and its generation. Invoked single-flight
	// from ingest; also reachable via TriggerRetrain.
	Retrainer func(ctx context.Context) (*core.Ensemble, uint64, error)
	// CoalesceWindow, when > 0, fuses single-job diagnose misses into
	// DiagnoseBatch passes: misses arriving while a pass runs park for up
	// to the window and fuse, a duplicate of a running job joins its pass,
	// and a lone miss dispatches at once. Set before the first request.
	// See coalesce.go.
	CoalesceWindow time.Duration
	// CoalesceMax caps one fused batch (DefaultCoalesceMax when 0); a full
	// batch dispatches without waiting out the window.
	CoalesceMax int
	// Drift, when non-nil, streams every durably ingested job through
	// bounded-memory distribution sketches and rolling prediction-error
	// tracking; a tripped detector triggers the same single-flight retrain
	// a backlog threshold does, canary-gated before promotion. Set before
	// the first request. See lifecycle.go and internal/drift.
	Drift *drift.Monitor
	// RollbackRatio, when > 0 with Drift wired in, arms a post-promotion
	// watch after each auto-promoted retrain: rolling serving error
	// reaching RollbackRatio × the pre-promotion baseline rolls the swap
	// back to the previous generation automatically.
	RollbackRatio float64
	// RollbackWatch is how many labeled jobs the post-promotion watch
	// covers before the promotion is judged safe (default 200).
	RollbackWatch int

	// coalesceOnce pins the coalescer (or its absence) at first use.
	coalesceOnce sync.Once
	coal         *coalescer

	// watch is the live post-promotion rollback watch (nil between
	// promotions); lifecycleMu guards the lifecycle decision history.
	watch       atomic.Pointer[promotionWatch]
	lifecycleMu sync.Mutex
	lifecycle   lifecycleStatus

	// retrainBusy makes retraining single-flight: a trigger while one cycle
	// is running is a no-op (the running cycle drains the same backlog).
	retrainBusy atomic.Bool
	// retrainState mirrors the last cycle's outcome for /healthz.
	retrainState atomic.Pointer[retrainStatus]

	// draining is set by BeginDrain: readiness goes red and, with no
	// Admission controller to refuse work, the diagnosis endpoints shed
	// directly.
	draining atomic.Bool

	// cacheOnce pins the cache (or its absence) at first use.
	cacheOnce sync.Once
	cache     *diagCache

	// viewMu serializes the writers of view (model upload, AdoptGeneration,
	// SetGeneration); readers take one atomic load and never lock.
	viewMu sync.Mutex
	view   atomic.Pointer[servingView]
	// advise produces tuning recommendations for a finished diagnosis; a
	// field so tests can inject failures. An advise error never fails the
	// diagnosis — it degrades to AdvisoryError in the response.
	advise func(*core.Ensemble, *core.Diagnosis) ([]tune.Recommendation, error)
}

// servingView is one immutable model set together with everything that
// describes it: the diagnosis options, the cache version its results are
// keyed under, and the registry report naming its generation. A writer
// installs a whole new view in one swap, so a request that loads the view
// once computes, caches and labels its answer with the same model set.
type servingView struct {
	ens  *core.Ensemble
	opts core.DiagnoseOptions
	// version counts model-set swaps: it starts at 1 and each swap
	// increments it, so cache keys from older sets can never match.
	version uint64
	// rep is the registry load report of ens; nil until SetGeneration.
	rep *core.LoadReport
}

// NewServer wraps a trained ensemble.
func NewServer(ens *core.Ensemble, opts core.DiagnoseOptions) *Server {
	s := &Server{
		advise: func(e *core.Ensemble, d *core.Diagnosis) ([]tune.Recommendation, error) {
			return tune.New(e).Advise(d, 1.05)
		},
	}
	s.view.Store(&servingView{ens: ens, opts: opts, version: 1})
	return s
}

// install makes next the serving view and purges every cached diagnosis
// of the views before it. Callers hold viewMu.
func (s *Server) install(next *servingView) {
	s.view.Store(next)
	if c := s.diagnosisCache(); c != nil {
		c.purge()
	}
}

// diagnosisCache returns the result cache, created at first use from
// CacheSize; nil when caching is disabled.
func (s *Server) diagnosisCache() *diagCache {
	s.cacheOnce.Do(func() {
		size := s.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		if size > 0 {
			s.cache = newDiagCache(size)
		}
	})
	return s.cache
}

// ServingEnsemble returns the model set currently answering traffic — the
// incumbent a canary gate evaluates a retrained candidate against. The set
// is shared with in-flight diagnoses and must not be modified.
func (s *Server) ServingEnsemble() *core.Ensemble { return s.view.Load().ens }

// Handler returns the HTTP routes, every one wrapped in the protection
// middleware (panic recovery + per-request deadline).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/diagnose", s.admitted("diagnose", s.handleDiagnoseHTML))
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/api/v1/models", s.handleModels)
	mux.HandleFunc("/api/v1/diagnose", s.admitted("diagnose", s.handleDiagnose))
	mux.HandleFunc("/api/v1/diagnose/batch", s.admitted("batch", s.handleDiagnoseBatch))
	mux.HandleFunc("/api/v1/jobs", s.admitted(IngestEndpoint, s.handleJobs))
	mux.HandleFunc("/api/v1/drift", s.handleDrift)
	mux.HandleFunc("/api/v1/generations", s.handleGenerations)
	mux.HandleFunc("/api/v1/generations/", s.handleGenerationFetch)
	return s.protect(mux)
}

// protect wraps h with the two blanket guards every route gets: a recover
// that converts a handler panic into a 500 (one hostile request must not
// take the whole service down), and — when RequestTimeout is set — a
// context deadline derived per request, so the diagnosis engine's
// cooperative cancellation bounds how long any request can hold the SHAP
// workers.
func (s *Server) protect(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// Best effort: if the handler already wrote a status this
				// only appends to the body.
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		if s.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	})
}

// admitted wraps a diagnosis handler with the admission gate for one
// endpoint. A shed request is answered immediately — 429 + Retry-After
// for overload, 503 for a drain — without ever reaching the parser or
// the diagnosis engine (so it cannot occupy memory, workers, or a cache
// slot). With no Admission controller configured, only the drain flag is
// enforced.
func (s *Server) admitted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Admission == nil {
			if s.draining.Load() {
				s.writeShed(w, admission.ErrDraining, admission.DefaultRetryAfter)
				return
			}
			h(w, r)
			return
		}
		lim := s.Admission.Limiter(endpoint)
		release, err := lim.Acquire(r.Context())
		if err != nil {
			s.writeShed(w, err, lim.RetryAfter())
			return
		}
		defer release()
		h(w, r)
	}
}

// writeShed answers a request refused by the admission layer: 503 for a
// draining server, 429 + Retry-After for overload or a dead-on-arrival
// deadline.
func (s *Server) writeShed(w http.ResponseWriter, err error, retryAfter time.Duration) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	status := http.StatusTooManyRequests
	msg := "server overloaded, request shed"
	if errors.Is(err, admission.ErrDraining) {
		status = http.StatusServiceUnavailable
		msg = "server is draining"
	}
	writeJSON(w, status, map[string]any{
		"error":       msg,
		"detail":      err.Error(),
		"retry_after": secs,
	})
}

// BeginDrain flips the server into drain mode: /readyz reports not-ready
// (so load balancers stop routing here) and new diagnosis work is
// refused while in-flight requests run to completion.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	if s.Admission != nil {
		s.Admission.BeginDrain()
	}
}

// Drain begins the drain and waits until every admitted diagnosis has
// finished or ctx expires. Call before http.Server.Shutdown so the
// listener closes only after the work is done.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	if s.Admission == nil {
		return nil
	}
	return s.Admission.Drain(ctx)
}

// handleReady is the readiness probe: distinct from /healthz liveness, it
// goes red when the server should receive no new traffic — during a
// drain, while every model's circuit breaker is open, or before a valid
// model generation is loaded — while the process itself stays alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() || (s.Admission != nil && s.Admission.Draining()) {
		reasons = append(reasons, "draining")
	}
	v := s.view.Load()
	names := make([]string, len(v.ens.Models))
	for i, m := range v.ens.Models {
		names[i] = m.Name()
	}
	if len(names) == 0 {
		reasons = append(reasons, "no model generation loaded")
	}
	if s.Breakers != nil && s.Breakers.AllOpen(names) {
		reasons = append(reasons, "all model circuit breakers open")
	}
	body := map[string]any{"ready": len(reasons) == 0}
	if len(reasons) > 0 {
		body["reasons"] = reasons
	}
	if s.Breakers != nil {
		body["breakers"] = s.Breakers.States()
	}
	if s.Admission != nil {
		body["admission"] = s.Admission.Stats()
	}
	if v.rep != nil {
		body["generation"] = v.rep
	}
	status := http.StatusOK
	if len(reasons) > 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) maxBody() int64 {
	if s.MaxBody > 0 {
		return s.MaxBody
	}
	return DefaultMaxBody
}

// bodyError maps a request-body parse failure to a status: 413 when the
// MaxBytesReader limit tripped, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	httpError(w, http.StatusBadRequest, fmt.Sprintf("parse log: %v", err))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok"}
	if c := s.diagnosisCache(); c != nil {
		hits, misses, size := c.stats()
		body["cache"] = map[string]any{"hits": hits, "misses": misses, "size": size}
	}
	if co := s.coalescerIfEnabled(); co != nil {
		batches, fused := co.stats()
		body["coalesce"] = map[string]any{"batches": batches, "fused": fused}
	}
	if s.JobLog != nil {
		st := s.JobLog.Stats()
		body["joblog"] = map[string]any{
			"sealed_segments":      st.SealedSegments,
			"bytes":                st.TotalBytes,
			"records":              st.Records,
			"quarantined":          st.Quarantined,
			"duplicate_frames":     st.DuplicateFrames,
			"compactions":          st.Compactions,
			"last_compaction_unix": st.LastCompactionUnix,
			"pending_retrain":      st.Pending,
		}
		retrain := map[string]any{"busy": s.retrainBusy.Load()}
		if rs := s.retrainState.Load(); rs != nil {
			retrain["last_generation"] = rs.Generation
			retrain["last_unix"] = rs.FinishedUnix
			if rs.Err != "" {
				retrain["last_error"] = rs.Err
			}
		}
		body["retrain"] = retrain
	}
	if s.Breakers != nil {
		body["breakers"] = s.Breakers.States()
	}
	if s.Drift != nil {
		st := s.Drift.Snapshot()
		lc := s.lifecycleSnapshot()
		body["drift"] = map[string]any{
			"armed":          st.Armed,
			"tripped":        st.Tripped,
			"tripped_by":     st.TrippedBy,
			"max_psi":        st.MaxPSI,
			"threshold":      st.Threshold,
			"drifted":        len(st.Drifted),
			"window_jobs":    st.WindowJobs,
			"reference_jobs": st.ReferenceJobs,
			"rolling_rmse":   st.RollingRMSE,
			"baseline_rmse":  st.BaselineRMSE,
			"error_ratio":    st.ErrorRatio,
			"error_obs":      st.ErrorObs,
			"drift_retrains": lc.DriftRetrains,
			"canary_blocked": lc.CanaryBlocked,
			"rollbacks":      lc.Rollbacks,
			"watch_armed":    lc.WatchArmed,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		models := s.view.Load().ens.Models
		infos := make([]ModelInfo, 0, len(models))
		for _, m := range models {
			infos = append(infos, ModelInfo{Name: m.Name(), Kind: m.Kind()})
		}
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		s.handleModelUpload(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// SetGeneration records the registry load report of the serving model set,
// surfaced on /readyz and stamped on every diagnosis it computes.
func (s *Server) SetGeneration(rep *core.LoadReport) {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	next := *s.view.Load()
	next.rep = rep
	s.view.Store(&next)
}

// storeReport builds a load report for a just-committed generation,
// fingerprinted from its on-disk manifest.
func (s *Server) storeReport(gen uint64) *core.LoadReport {
	rep := &core.LoadReport{Generation: gen}
	if s.Store != nil {
		if man, err := s.Store.Manifest(gen); err == nil {
			rep.Fingerprint = man.Fingerprint()
		}
	}
	return rep
}

// GenerationReport returns the registry load report of the serving model
// set (nil until SetGeneration).
func (s *Server) GenerationReport() *core.LoadReport { return s.view.Load().rep }

// handleModelUpload accepts a pre-trained model (?name=...&kind=gbdt|mlp|tabnet
// with the gob body) as a validated hot-swap: the candidate model set —
// current set with the upload swapped in — is smoke-predicted on a probe
// vector first, and only a fully valid set goes live under a version
// bump. A failed validation rolls back automatically: the old set keeps
// serving untouched and the client gets a structured error saying so.
// With a Store wired in, the accepted set is also persisted as a new
// registry generation so the swap survives a restart.
func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	kind := r.URL.Query().Get("kind")
	if name == "" || kind == "" {
		httpError(w, http.StatusBadRequest, "name and kind query parameters required")
		return
	}
	m, err := core.LoadModel(name, kind, http.MaxBytesReader(w, r.Body, 4*s.maxBody()))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("model exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode model: %v", err))
		return
	}
	// Validate the uploaded model alone first — the cheap reject, before
	// taking any lock.
	if err := probeModel(m); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":       fmt.Sprintf("model failed validation: %v", err),
			"rolled_back": true,
		})
		return
	}
	s.viewMu.Lock()
	cur := s.view.Load()
	// Build the candidate set: a fresh slice (in-flight diagnoses keep the
	// old view) with the upload swapped in or appended.
	candidate := append([]core.Model(nil), cur.ens.Models...)
	replaced := false
	for i, existing := range candidate {
		if existing.Name() == name {
			candidate[i] = m
			replaced = true
			break
		}
	}
	if !replaced {
		candidate = append(candidate, m)
	}
	// Smoke-predict the whole candidate set. If any member fails, the
	// swap is rolled back before it ever happened: the view is untouched.
	for _, cm := range candidate {
		if err := probeModel(cm); err != nil {
			s.viewMu.Unlock()
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("candidate model set failed validation at %s: %v; upload rolled back",
					cm.Name(), err),
				"rolled_back": true,
			})
			return
		}
	}
	next := &servingView{
		ens:     &core.Ensemble{Models: candidate},
		opts:    cur.opts,
		version: cur.version + 1,
		rep:     cur.rep,
	}
	body := map[string]any{"name": name, "replaced": replaced}
	// Persist before the swap so the models and the generation that names
	// them go live together. A persist failure keeps the hot-swap (it
	// already validated) under the old report and is surfaced instead.
	if s.Store != nil {
		if gen, err := s.Store.Save(next.ens); err != nil {
			body["persist_error"] = err.Error()
		} else {
			body["generation"] = gen
			next.rep = s.storeReport(gen)
		}
	}
	s.install(next)
	s.viewMu.Unlock()
	// A fresh (validated) model deserves a closed breaker.
	if s.Breakers != nil {
		s.Breakers.For(name).Success()
	}
	writeJSON(w, http.StatusOK, body)
}

// probeModel rejects an uploaded model whose feature dimension does not
// match the 45-counter schema before it can reach a diagnosis: a
// wrongly-dimensioned model panics (slice bounds) or returns a non-finite
// value when evaluated, so it is exercised here on a probe vector, inside
// a recover, instead of inside a live request.
func probeModel(m core.Model) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe prediction panicked (feature dimension mismatch with the %d-counter schema?): %v",
				darshan.NumCounters, r)
		}
	}()
	probe := make([]float64, darshan.NumCounters)
	for j := range probe {
		// Non-zero, varied values so dimension-dependent code paths
		// (standardization, tree splits on any counter) are exercised.
		probe[j] = float64(j%7) + 0.5
	}
	v := m.Predict(probe)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("probe prediction is %v", v)
	}
	return nil
}

// safeAdvise runs the tuning advisor with panics converted to errors:
// unlike the diagnosis engine, the advisor predicts on raw models with no
// per-model recovery, so a model that panics mid-advice (a fault the
// diagnosis already degraded around) must cost only the recommendations,
// never the whole response.
func (s *Server) safeAdvise(ens *core.Ensemble, diag *core.Diagnosis) (recs []tune.Recommendation, err error) {
	defer func() {
		if r := recover(); r != nil {
			recs, err = nil, fmt.Errorf("advisor panicked: %v", r)
		}
	}()
	return s.advise(ens, diag)
}

func buildResponse(diag *core.Diagnosis) *DiagnosisResponse {
	resp := &DiagnosisResponse{
		App:           diag.Record.App,
		ActualMiBps:   diag.ActualMiBps,
		ClosestModel:  diag.PerModel[diag.ClosestIndex].Name,
		Robust:        diag.IsRobust(),
		Degraded:      diag.Degraded,
		SkippedModels: diag.SkippedModels(),
	}
	for i, md := range diag.PerModel {
		resp.Models = append(resp.Models, ModelResult{
			Name:           md.Name,
			PredictedMiBps: md.PredictedMiBps,
			Weight:         diag.Weights[i],
			Error:          md.Err,
		})
	}
	for _, f := range diag.TopFactors(0) {
		resp.Factors = append(resp.Factors, FactorJSON{
			Counter: f.Counter.String(), Contribution: f.Contribution, Value: f.Value,
		})
	}
	for _, f := range diag.Bottlenecks() {
		resp.Bottlenecks = append(resp.Bottlenecks, FactorJSON{
			Counter: f.Counter.String(), Contribution: f.Contribution, Value: f.Value,
		})
	}
	return resp
}

// AdoptGeneration hot-swaps a replicated (or freshly committed) model set
// into the serving path with the same safeguards as a model upload: every
// model is probe-validated first, and a failure leaves the old set serving
// untouched. On success the models, a bumped cache version and rep go live
// in one swap (every cached diagnosis is purged), and each model's breaker
// is reset the way a validated upload's is.
func (s *Server) AdoptGeneration(ens *core.Ensemble, rep *core.LoadReport) error {
	for _, m := range ens.Models {
		if err := probeModel(m); err != nil {
			return fmt.Errorf("webservice: adopt generation %d: model %s failed validation, swap refused: %w",
				rep.Generation, m.Name(), err)
		}
	}
	s.viewMu.Lock()
	cur := s.view.Load()
	s.install(&servingView{ens: ens, opts: cur.opts, version: cur.version + 1, rep: rep})
	s.viewMu.Unlock()
	if s.Breakers != nil {
		for _, m := range ens.Models {
			s.Breakers.For(m.Name()).Success()
		}
	}
	return nil
}

// GenerationSummary is the JSON body of GET /api/v1/generations: the
// replication handshake. Generation/Fingerprint describe the store's
// CURRENT generation — what a follower can fetch from this replica —
// while Serving* describe the in-memory set answering diagnoses (the two
// differ only inside the commit-to-hot-swap window, or when persistence
// failed).
type GenerationSummary struct {
	Generation         uint64   `json:"generation"`
	Fingerprint        string   `json:"fingerprint,omitempty"`
	Available          []uint64 `json:"available,omitempty"`
	ServingGeneration  uint64   `json:"serving_generation"`
	ServingFingerprint string   `json:"serving_fingerprint,omitempty"`
}

// handleGenerations answers the replication handshake. 501 without a
// store: a store-less server has nothing a follower could fetch.
func (s *Server) handleGenerations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.Store == nil {
		httpError(w, http.StatusNotImplemented, "no model store configured")
		return
	}
	sum := GenerationSummary{}
	if cur, ok := s.Store.CurrentGeneration(); ok {
		sum.Generation = cur
		if man, err := s.Store.Manifest(cur); err == nil {
			sum.Fingerprint = man.Fingerprint()
		}
		sum.Available, _ = s.Store.Generations()
	}
	if rep := s.GenerationReport(); rep != nil {
		sum.ServingGeneration = rep.Generation
		sum.ServingFingerprint = rep.Fingerprint
	}
	writeJSON(w, http.StatusOK, &sum)
}

// handleGenerationFetch serves the transfer half of generation
// replication:
//
//	GET /api/v1/generations/{id}              → manifest JSON
//	GET /api/v1/generations/{id}/files/{file} → raw model bytes
//
// The file name must match a manifest entry exactly (Store.OpenModelFile
// enforces it), so the endpoint cannot be walked outside the generation
// directory. Followers verify each file's SHA-256 against the manifest
// before anything is committed, so a torn or tampered transfer dies on the
// follower, not here.
func (s *Server) handleGenerationFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.Store == nil {
		httpError(w, http.StatusNotImplemented, "no model store configured")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/generations/")
	parts := strings.Split(rest, "/")
	gen, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad generation id %q", parts[0]))
		return
	}
	switch {
	case len(parts) == 1:
		man, err := s.Store.Manifest(gen)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, man)
	case len(parts) == 3 && parts[1] == "files":
		f, err := s.Store.OpenModelFile(gen, parts[2])
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := io.Copy(w, f); err != nil {
			// Headers are gone; the follower's checksum catches the torn
			// body.
			return
		}
	default:
		httpError(w, http.StatusNotFound, "use /api/v1/generations/{id} or /api/v1/generations/{id}/files/{file}")
	}
}

// encodeBuf pairs a reusable buffer with a json.Encoder bound to it, so
// the per-response encoder allocation is pooled away along with the body
// bytes.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledEncodeBuf keeps outlier response bodies (a huge batch) from
// pinning their capacity in the pool forever.
const maxPooledEncodeBuf = 1 << 20

var encodePool = sync.Pool{New: func() any {
	eb := &encodeBuf{}
	eb.enc = json.NewEncoder(&eb.buf)
	return eb
}}

// writeJSON encodes v through a pooled buffer + encoder, so the steady
// state of the handler path allocates no per-response encoding state, and
// the response carries a Content-Length (the body is in hand before any
// byte is written).
func writeJSON(w http.ResponseWriter, status int, v any) {
	eb := encodePool.Get().(*encodeBuf)
	eb.buf.Reset()
	if err := eb.enc.Encode(v); err != nil {
		// Encoding failed before anything was written: a structured 500
		// is still possible (maps and the response structs here cannot
		// actually fail, but a cycle in some future type must not hang
		// the connection).
		encodePool.Put(eb)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":"encode response: %v"}`, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(eb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(eb.buf.Bytes())
	if eb.buf.Cap() <= maxPooledEncodeBuf {
		encodePool.Put(eb)
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
