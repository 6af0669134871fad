package webservice

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// ingestServer wires a Server with a joblog in a temp dir.
func ingestServer(t *testing.T) (*Server, *joblog.Store) {
	t.Helper()
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ensemble(t), fastOpts())
	s.JobLog = jl
	return s, jl
}

// genRecords returns n deterministic synthetic jobs.
func genRecords(t *testing.T, n int) []*darshan.Record {
	t.Helper()
	out := make([]*darshan.Record, 0, n)
	logdb.GenerateStream(logdb.GenConfig{Jobs: n, Seed: 7}, func(rec *darshan.Record) bool {
		out = append(out, rec)
		return true
	})
	return out
}

func TestIngestRoundTripAndIdempotentRetry(t *testing.T) {
	s, jl := ingestServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	recs := genRecords(t, 20)
	resp, err := client.Ingest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 20 || resp.Duplicates != 0 || resp.Quarantined != 0 {
		t.Fatalf("first ingest: %+v", resp)
	}
	if resp.Pending != 20 {
		t.Fatalf("pending = %d, want 20", resp.Pending)
	}
	// The client's retry after a lost ack: same batch again.
	resp2, err := client.Ingest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Accepted != 0 || resp2.Duplicates != 20 {
		t.Fatalf("retry ingest: %+v", resp2)
	}
	if st := jl.Stats(); st.Records != 20 {
		t.Fatalf("log holds %d records, want 20", st.Records)
	}
}

func TestIngestQuarantinesInvalidCounters(t *testing.T) {
	s, jl := ingestServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	recs := genRecords(t, 3)
	recs[1].Counters[4] = math.NaN()
	recs[2].Counters[0] = math.Inf(1)
	resp, err := client.Ingest(recs)
	if err != nil {
		t.Fatal(err)
	}
	// The lenient parser vets counters at the boundary, so the corrupt
	// records arrive as parse rejections; either path must keep them out
	// of the log and preserved in quarantine.
	if resp.Accepted != 1 || resp.Quarantined+resp.ParseRejected != 2 {
		t.Fatalf("ingest with corrupt records: %+v", resp)
	}
	if st := jl.Stats(); st.Records != 1 || st.Quarantined != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// A histogram-invariant violation parses clean (finite, non-negative
	// counters pass the parser's vet) and is caught by the handler's own
	// Validate gate instead.
	bad := genRecords(t, 4)[3]
	bad.Counters[darshan.PosixReads] = bad.Counters[darshan.PosixReads] + 17
	if err := bad.Validate(); err == nil {
		t.Fatal("expected an invariant violation after skewing POSIX_READS")
	}
	resp2, err := client.Ingest([]*darshan.Record{bad})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Quarantined != 1 && resp2.ParseRejected != 1 {
		t.Fatalf("invariant-violating record not quarantined: %+v", resp2)
	}
}

func TestIngestRejectsEmptyBody(t *testing.T) {
	s, _ := ingestServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs", "text/plain", strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("empty body: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestIngestDisabledWithoutJobLog(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 501 {
		t.Fatalf("no joblog: HTTP %d, want 501", resp.StatusCode)
	}
}

func TestIngestHasOwnAdmissionLimit(t *testing.T) {
	s, _ := ingestServer(t)
	ctl := admission.NewController(admission.Config{MaxInflight: 4, QueueDepth: 4})
	// Ingest gets a dedicated zero-queue single-slot budget, so it sheds
	// under load the diagnosis endpoints would still absorb.
	ctl.SetConfig(IngestEndpoint, admission.Config{MaxInflight: 1, QueueDepth: -1})
	s.Admission = ctl
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Hold the single ingest slot.
	release, err := ctl.Limiter(IngestEndpoint).Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("saturated ingest: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	release()

	// The slot is free again and the diagnose endpoint was never affected.
	out, err := NewClient(srv.URL).Ingest(genRecords(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 2 {
		t.Fatalf("after release: %+v", out)
	}
}

func TestIngestTriggersRetrainAndHotSwap(t *testing.T) {
	s, jl := ingestServer(t)
	store := core.OpenStore(t.TempDir())
	s.Store = store
	s.RetrainThreshold = 10
	s.Retrainer = func(ctx context.Context) (*core.Ensemble, uint64, error) {
		rep, err := core.RunIncremental(ctx, jl, store, core.IncrementalOptions{
			MiniBatch: 8,
			Window:    64,
			Train:     core.TrainOptions{Models: []string{core.NameLightGBM}, Fast: true, Seed: 1},
		})
		if err != nil {
			return nil, 0, err
		}
		ens, _, err := store.Load()
		if err != nil {
			return nil, 0, err
		}
		return ens, rep.Generation, nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	v0 := s.view.Load().version
	resp, err := client.Ingest(genRecords(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.RetrainTriggered {
		t.Fatalf("30 jobs over a threshold of 10 did not trigger retraining: %+v", resp)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !s.RetrainIdle() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !s.RetrainIdle() {
		t.Fatal("retraining did not finish in time")
	}
	rs := s.retrainState.Load()
	if rs == nil || rs.Err != "" {
		t.Fatalf("retrain state: %+v", rs)
	}
	if rs.Generation == 0 {
		t.Fatal("no generation committed")
	}
	// The backlog is incorporated and the serving set was hot-swapped.
	if jl.Pending() != 0 {
		t.Fatalf("pending after retrain = %d, want 0", jl.Pending())
	}
	ens2, v1 := s.ServingEnsemble(), s.view.Load().version
	if v1 <= v0 {
		t.Fatalf("version did not bump: %d then %d", v0, v1)
	}
	if ens2.Model(core.NameLightGBM) == nil {
		t.Fatal("retrained ensemble lost its model")
	}
	// The swap is visible on /healthz.
	if rep := s.GenerationReport(); rep == nil || rep.Generation != rs.Generation {
		t.Fatalf("generation report %+v, want generation %d", rep, rs.Generation)
	}
	// A failed retrainer never swaps: single-flight allows a new cycle now.
	s.Retrainer = func(ctx context.Context) (*core.Ensemble, uint64, error) {
		return nil, 0, core.ErrNoNewJobs
	}
	if !s.TriggerRetrain() {
		t.Fatal("idle server refused a retrain trigger")
	}
	for !s.RetrainIdle() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rs2 := s.retrainState.Load(); rs2 == nil || rs2.Err == "" {
		t.Fatalf("failed cycle not surfaced: %+v", rs2)
	}
	if v2 := s.view.Load().version; v2 != v1 {
		t.Fatalf("failed retrain bumped the version: %d then %d", v1, v2)
	}
}

func TestHealthzReportsJoblog(t *testing.T) {
	s, jl := ingestServer(t)
	if _, err := jl.Append(genRecords(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := jl.Sync(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	joblogBody, ok := body["joblog"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing joblog section: %v", body)
	}
	for _, key := range []string{"sealed_segments", "bytes", "quarantined", "last_compaction_unix", "pending_retrain"} {
		if _, ok := joblogBody[key]; !ok {
			t.Fatalf("healthz joblog missing %q: %v", key, joblogBody)
		}
	}
	if joblogBody["pending_retrain"].(float64) != 1 {
		t.Fatalf("pending_retrain = %v, want 1", joblogBody["pending_retrain"])
	}
	if _, ok := body["retrain"].(map[string]any); !ok {
		t.Fatalf("healthz missing retrain section: %v", body)
	}
}
