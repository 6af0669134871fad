package webservice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// The one diagnosis pipeline. Every diagnosis endpoint — single-job JSON,
// batch JSON and the HTML form — parses its body, calls diagnoseMany and
// renders the answer; nothing else loads the serving view, consults the
// cache or the circuit breakers, or runs the diagnosis engine. A single-job
// request is a batch of one. Response headers, breaker-skip marks, tuning
// advice and advisories are all read from the view the pipeline returns,
// i.e. from the model set that computed the body.

// errAllBreakersOpen makes the handler answer with the structured
// breaker-open 503.
var errAllBreakersOpen = errors.New("webservice: every model's circuit breaker is open")

// served is one pipeline run's answer.
type served struct {
	// view is the model set that computed every diagnosis in diags.
	view  *servingView
	diags []*core.Diagnosis
	// hits counts the jobs answered from the cache.
	hits int
	// batched is how many requests shared the coalesced pass (0 when the
	// pass ran directly).
	batched int
}

// diagnoseMany diagnoses recs against one load of the serving view: cache
// hits are resolved first, so a hit never waits out the coalesce window,
// and the misses run through diagnoseMisses — behind the coalescer for a
// single-job request, directly for a batch.
func (s *Server) diagnoseMany(ctx context.Context, recs []*darshan.Record) (served, error) {
	v := s.view.Load()
	res := served{view: v, diags: make([]*core.Diagnosis, len(recs))}
	cache := s.diagnosisCache()
	var missIdx []int
	var missRecs []*darshan.Record
	for i, rec := range recs {
		if cache != nil {
			if d, ok := cache.get(cacheKey(v.version, rec)); ok {
				res.diags[i] = d
				res.hits++
				continue
			}
		}
		missIdx = append(missIdx, i)
		missRecs = append(missRecs, rec)
	}
	if len(missRecs) == 0 {
		return res, nil
	}
	if co := s.coalescerIfEnabled(); co != nil && len(recs) == 1 {
		cr, err := co.submit(ctx, v, recs[0])
		if err != nil {
			return served{}, err
		}
		res.diags[0], res.batched = cr.diag, cr.batched
		return res, nil
	}
	fresh, err := s.diagnoseMisses(ctx, v, missRecs)
	if err != nil {
		return served{}, err
	}
	for k, i := range missIdx {
		res.diags[i] = fresh[k]
	}
	return res, nil
}

// diagnoseMisses is the engine half of the pipeline, run directly or by
// the coalescer over deduplicated jobs: partition v's models by their
// circuit breakers, diagnose recs in one DiagnoseBatchContext pass, feed
// the per-model outcomes back to the breakers, and cache the results. A
// result computed with breaker-open models skipped is partial and stays out
// of the cache, which would otherwise keep serving the degraded answer
// after the breakers close.
func (s *Server) diagnoseMisses(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error) {
	allowed := s.applyBreakers(v.ens)
	if len(allowed.Models) == 0 {
		return nil, errAllBreakersOpen
	}
	diags, err := allowed.DiagnoseBatchContext(ctx, recs, v.opts)
	if err != nil && ctx.Err() != nil {
		// A request-level cancellation: per-model blame is meaningless.
		return nil, err
	}
	s.recordOutcomes(allowed, diags)
	if err != nil {
		return nil, err
	}
	if cache := s.diagnosisCache(); cache != nil && len(allowed.Models) == len(v.ens.Models) {
		for i, rec := range recs {
			cache.put(cacheKey(v.version, rec), diags[i])
		}
	}
	return diags, nil
}

// applyBreakers returns the models of ens whose circuit breaker lets them
// run; open ones are skipped (the degraded path for traffic). With no
// BreakerSet configured every model runs.
func (s *Server) applyBreakers(ens *core.Ensemble) *core.Ensemble {
	if s.Breakers == nil {
		return ens
	}
	allowed := &core.Ensemble{Models: make([]core.Model, 0, len(ens.Models))}
	for _, m := range ens.Models {
		if s.Breakers.For(m.Name()).Allow() {
			allowed.Models = append(allowed.Models, m)
		}
	}
	return allowed
}

// recordOutcomes feeds one pass's per-model results back into the
// breakers: a model that failed (panic, NaN) in any of the pass's
// diagnoses counts one failure, a model that worked throughout counts one
// success. nil diags — the pass errored because no model survived a job —
// charges every model one failure, or the breakers would never open.
func (s *Server) recordOutcomes(allowed *core.Ensemble, diags []*core.Diagnosis) {
	if s.Breakers == nil {
		return
	}
	for i, m := range allowed.Models {
		failed := diags == nil
		for _, d := range diags {
			if d.PerModel[i].Failed() {
				failed = true
				break
			}
		}
		if failed {
			s.Breakers.For(m.Name()).Failure()
		} else {
			s.Breakers.For(m.Name()).Success()
		}
	}
}

// ran splits v's model set for a diagnosis it computed: the models that
// produced d, and the ones breaker-open at the time, which d skipped.
// PerModel lists the models that ran in the view's order.
func (v *servingView) ran(d *core.Diagnosis) (*core.Ensemble, []string) {
	if len(d.PerModel) == len(v.ens.Models) {
		return v.ens, nil
	}
	ran := &core.Ensemble{}
	var open []string
	for _, m := range v.ens.Models {
		if k := len(ran.Models); k < len(d.PerModel) && d.PerModel[k].Name == m.Name() {
			ran.Models = append(ran.Models, m)
		} else {
			open = append(open, m.Name())
		}
	}
	return ran, open
}

// respond renders job i of a pipeline answer. Models that were
// breaker-open when the job was diagnosed are appended as skipped
// casualties, so a client sees the same degraded shape an in-request model
// failure produces. full adds what only the single-job endpoint carries:
// tuning advice and the lifecycle advisories.
func (s *Server) respond(res served, i int, full bool) *DiagnosisResponse {
	d := res.diags[i]
	resp := buildResponse(d)
	ran, open := res.view.ran(d)
	if len(open) > 0 {
		resp.Degraded = true
		for _, name := range open {
			resp.Models = append(resp.Models, ModelResult{Name: name, Error: "circuit breaker open"})
			resp.SkippedModels = append(resp.SkippedModels, name)
		}
	}
	if !full {
		return resp
	}
	// The advisor is best-effort: a failure degrades to an advisory-error
	// field instead of discarding the successful diagnosis. It runs over
	// the models that served this job, so breaker-open models are excluded
	// from its counterfactual predictions too.
	recs, err := s.safeAdvise(ran, d)
	if err != nil {
		resp.AdvisoryError = err.Error()
	}
	for _, r := range recs {
		resp.Recommendations = append(resp.Recommendations, RecommendationJSON{
			Action:         r.Action,
			Description:    r.Description,
			PredictedMiBps: r.PredictedMiBps,
			PredictedGain:  r.PredictedGain,
		})
	}
	s.appendAdvisories(resp, res.view.rep)
	return resp
}

// stamp sets the headers that say how res was computed: the model
// generation and content fingerprint of its view (so routers, replication
// syncers and chaos drills can assert freshness without a second round
// trip; a view with no registry report stamps nothing), the cache outcome
// ("hit"/"miss" for a single job, "hits=H misses=M" for a batch), and how
// many requests shared a coalesced pass.
func (s *Server) stamp(w http.ResponseWriter, res served, batch bool) {
	h := w.Header()
	if rep := res.view.rep; rep != nil {
		h.Set("X-AIIO-Generation", strconv.FormatUint(rep.Generation, 10))
		if rep.Fingerprint != "" {
			h.Set("X-AIIO-Fingerprint", rep.Fingerprint)
		}
	}
	if s.diagnosisCache() != nil {
		switch {
		case batch:
			h.Set("X-AIIO-Cache", fmt.Sprintf("hits=%d misses=%d", res.hits, len(res.diags)-res.hits))
		case res.hits == 1:
			h.Set("X-AIIO-Cache", "hit")
		default:
			h.Set("X-AIIO-Cache", "miss")
		}
	}
	if res.batched > 0 {
		h.Set("X-AIIO-Coalesced", strconv.Itoa(res.batched))
	}
}

// writeDiagnoseError answers a failed pipeline run: 503 with the
// X-AIIO-Breaker header when every model's breaker is open (telling clients
// not to retry against this instance; Retry-After hints when the first
// cooldown probe becomes possible), a structured 503 when the request's
// deadline expired or its client vanished, and 500 otherwise.
func (s *Server) writeDiagnoseError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errAllBreakersOpen):
		w.Header().Set("X-AIIO-Breaker", "open")
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(admission.DefaultRetryAfter.Seconds()))))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":    "every model's circuit breaker is open",
			"breakers": s.Breakers.States(),
		})
	case r.Context().Err() != nil:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":   "diagnosis cancelled before completion",
			"timeout": s.RequestTimeout.String(),
			"detail":  err.Error(),
		})
	default:
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("diagnose: %v", err))
	}
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a Darshan text log")
		return
	}
	rec, err := darshan.ParseLog(http.MaxBytesReader(w, r.Body, s.maxBody()))
	if err != nil {
		bodyError(w, err)
		return
	}
	res, err := s.diagnoseMany(r.Context(), []*darshan.Record{rec})
	if err != nil {
		s.writeDiagnoseError(w, r, err)
		return
	}
	s.stamp(w, res, false)
	writeJSON(w, http.StatusOK, s.respond(res, 0, true))
}

// handleDiagnoseBatch accepts a WriteDataset-format stream of several logs
// and diagnoses them on the parallel engine, returning one response per
// record in input order. Recommendations and advisories are omitted in
// batch mode; the single-job endpoint provides them.
func (s *Server) handleDiagnoseBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a stream of Darshan text logs")
		return
	}
	ds, err := darshan.ParseDataset(http.MaxBytesReader(w, r.Body, 4*s.maxBody()))
	if err != nil {
		bodyError(w, err)
		return
	}
	if ds.Len() == 0 {
		httpError(w, http.StatusBadRequest, "no records in request body")
		return
	}
	res, err := s.diagnoseMany(r.Context(), ds.Records)
	if err != nil {
		s.writeDiagnoseError(w, r, err)
		return
	}
	s.stamp(w, res, true)
	resps := make([]*DiagnosisResponse, len(res.diags))
	for i := range resps {
		resps[i] = s.respond(res, i, false)
	}
	writeJSON(w, http.StatusOK, resps)
}
