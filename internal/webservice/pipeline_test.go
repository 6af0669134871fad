package webservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// reply is one raw HTTP answer.
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// send POSTs body to srv's path. It never calls t.Fatal, so it is safe
// from any goroutine.
func send(srv *httptest.Server, path, contentType string, body []byte) reply {
	resp, err := srv.Client().Post(srv.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, header: resp.Header, body: raw, err: err}
}

func logBody(t *testing.T, rec *darshan.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteLog(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeOK fails the test unless rep is a 200 and decodes its body into v.
func decodeOK(t *testing.T, rep reply, v any) {
	t.Helper()
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	if rep.status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rep.status, rep.body)
	}
	if err := json.Unmarshal(rep.body, v); err != nil {
		t.Fatalf("decode %s: %v", rep.body, err)
	}
}

// cacheCounters reads the cache hit/miss counters from /healthz.
func cacheCounters(t *testing.T, srv *httptest.Server) (hits, misses uint64) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	return health.Cache.Hits, health.Cache.Misses
}

// TestCoalescedDiagnosisStampsComputingGeneration: a cold diagnosis parked
// behind a running pass while a new generation is adopted is labelled —
// X-AIIO-Generation and the registry advisory — with the generation whose
// models are in its body.
func TestCoalescedDiagnosisStampsComputingGeneration(t *testing.T) {
	full := ensemble(t)
	small := &core.Ensemble{Models: full.Models[:1]}
	modelsOf := map[string]int{"1": len(full.Models), "2": len(small.Models)}

	s := NewServer(full, fastOpts())
	s.SetGeneration(&core.LoadReport{Generation: 1})
	s.CoalesceWindow = 300 * time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	co, release := holdPasses(t, s)
	defer release()

	// A lone miss dispatches at once; the held pass keeps it running so
	// the diagnosis under test parks behind it.
	blocker := make(chan reply, 1)
	blockerBody := logBody(t, coalesceRecord(19))
	go func() { blocker <- send(srv, "/api/v1/diagnose", "text/plain", blockerBody) }()
	awaitInCoalescer(t, co, 1)
	done := make(chan reply, 1)
	body := logBody(t, coalesceRecord(20))
	go func() { done <- send(srv, "/api/v1/diagnose", "text/plain", body) }()

	for deadline := time.Now().Add(10 * time.Second); ; {
		co.mu.Lock()
		parked := len(co.pending)
		co.mu.Unlock()
		if parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the diagnosis never parked in the coalescer")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.AdoptGeneration(small, &core.LoadReport{Generation: 2}); err != nil {
		t.Fatal(err)
	}
	release()
	if rep := <-blocker; rep.err != nil || rep.status != http.StatusOK {
		t.Fatalf("blocking diagnosis: HTTP %d, %v", rep.status, rep.err)
	}

	rep := <-done
	var resp DiagnosisResponse
	decodeOK(t, rep, &resp)
	gen := rep.header.Get("X-AIIO-Generation")
	want, ok := modelsOf[gen]
	if !ok {
		t.Fatalf("X-AIIO-Generation = %q, want 1 or 2", gen)
	}
	if len(resp.Models) != want {
		t.Errorf("header names generation %s (%d models), body holds %d models", gen, want, len(resp.Models))
	}
	wantClaim := "diagnosis served by model generation " + gen
	found := false
	for _, a := range resp.Advisories {
		if a.Source == "model-registry" {
			found = true
			if a.Claim != wantClaim {
				t.Errorf("registry advisory %q, want %q", a.Claim, wantClaim)
			}
		}
	}
	if !found {
		t.Error("no model-registry advisory on the diagnosis")
	}
}

// TestCacheLookupsCountedOnce: every diagnosed job is one cache lookup on
// /healthz, coalesced or not, and the counters agree with the X-AIIO-Cache
// headers the requests were answered with.
func TestCacheLookupsCountedOnce(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.CoalesceWindow = 50 * time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const cold = 3
	bodies := make([][]byte, cold)
	for i := range bodies {
		bodies[i] = logBody(t, coalesceRecord([]int{2, 3, 5}[i]))
	}
	reps := make([]reply, cold)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = send(srv, "/api/v1/diagnose", "text/plain", bodies[i])
		}(i)
	}
	wg.Wait()
	// One warm repeat: a hit, answered without entering the coalescer.
	reps = append(reps, send(srv, "/api/v1/diagnose", "text/plain", bodies[0]))

	var hdrHits, hdrMisses uint64
	for i, rep := range reps {
		var resp DiagnosisResponse
		decodeOK(t, rep, &resp)
		switch h := rep.header.Get("X-AIIO-Cache"); h {
		case "hit":
			hdrHits++
		case "miss":
			hdrMisses++
		default:
			t.Fatalf("request %d: X-AIIO-Cache = %q", i, h)
		}
	}
	last := reps[len(reps)-1]
	if hdrHits != 1 || hdrMisses != cold || last.header.Get("X-AIIO-Coalesced") != "" {
		t.Errorf("headers: %d hits, %d misses, repeat coalesced=%q; want %d cold misses and 1 uncoalesced hit",
			hdrHits, hdrMisses, last.header.Get("X-AIIO-Coalesced"), cold)
	}
	hits, misses := cacheCounters(t, srv)
	if hits+misses != uint64(len(reps)) {
		t.Errorf("/healthz counts %d lookups (%d hits, %d misses) for %d requests", hits+misses, hits, misses, len(reps))
	}
	if hits != hdrHits || misses != hdrMisses {
		t.Errorf("/healthz hits=%d misses=%d, headers hits=%d misses=%d", hits, misses, hdrHits, hdrMisses)
	}
}

// assertSameDiagnosis holds two answers for one job to the 1e-9 parity
// bound on everything the diagnosis engine computes.
func assertSameDiagnosis(t *testing.T, got, want *DiagnosisResponse, label string) {
	t.Helper()
	assertParity(t, got, want, label)
	if len(got.Bottlenecks) != len(want.Bottlenecks) {
		t.Fatalf("%s: %d bottlenecks, want %d", label, len(got.Bottlenecks), len(want.Bottlenecks))
	}
	for i := range want.Bottlenecks {
		if got.Bottlenecks[i].Counter != want.Bottlenecks[i].Counter ||
			!almostEqual(got.Bottlenecks[i].Contribution, want.Bottlenecks[i].Contribution) {
			t.Errorf("%s: bottleneck %d %s %v, want %s %v", label, i,
				got.Bottlenecks[i].Counter, got.Bottlenecks[i].Contribution,
				want.Bottlenecks[i].Counter, want.Bottlenecks[i].Contribution)
		}
	}
	if got.Degraded != want.Degraded || fmt.Sprint(got.SkippedModels) != fmt.Sprint(want.SkippedModels) {
		t.Errorf("%s: degraded=%v skipped=%v, want degraded=%v skipped=%v", label,
			got.Degraded, got.SkippedModels, want.Degraded, want.SkippedModels)
	}
}

// TestDiagnosisPathEquivalence: the single-job direct, single-job
// coalesced, batch and cache-hit paths return the same diagnosis for the
// same jobs, with every breaker closed and with one open.
func TestDiagnosisPathEquivalence(t *testing.T) {
	ens := ensemble(t)
	recs := []*darshan.Record{coalesceRecord(6), coalesceRecord(7), coalesceRecord(6)}
	var batchBody bytes.Buffer
	if err := darshan.WriteDataset(&batchBody, &darshan.Dataset{Records: recs}); err != nil {
		t.Fatal(err)
	}

	for _, openBreaker := range []bool{false, true} {
		label := fmt.Sprintf("breaker open=%v", openBreaker)
		newServer := func(window time.Duration) (*Server, *httptest.Server) {
			s := NewServer(ens, fastOpts())
			s.CoalesceWindow = window
			set, _ := breakerClock(1, time.Hour)
			if openBreaker {
				set.For(ens.Models[1].Name()).Failure()
			}
			s.Breakers = set
			srv := httptest.NewServer(s.Handler())
			t.Cleanup(srv.Close)
			return s, srv
		}
		_, direct := newServer(0)
		coalescing, coalesced := newServer(50 * time.Millisecond)
		_, batch := newServer(0)
		// Hold the first pass so the other two requests join the
		// coalescer behind it — the duplicate attached, the distinct job
		// parked — instead of racing its cache fill.
		co, release := holdPasses(t, coalescing)
		t.Cleanup(release)

		want := make([]*DiagnosisResponse, len(recs))
		for i, rec := range recs {
			rep := send(direct, "/api/v1/diagnose", "text/plain", logBody(t, rec))
			decodeOK(t, rep, &want[i])
			if openBreaker != want[i].Degraded {
				t.Fatalf("%s: job %d degraded=%v", label, i, want[i].Degraded)
			}
			// Job 2 repeats job 0: a hit on the full set; degraded
			// results stay out of the cache.
			wantCache := "miss"
			if i == 2 && !openBreaker {
				wantCache = "hit"
			}
			if got := rep.header.Get("X-AIIO-Cache"); got != wantCache {
				t.Errorf("%s: job %d X-AIIO-Cache = %q, want %q", label, i, got, wantCache)
			}
		}

		fused := make([]reply, len(recs))
		var wg sync.WaitGroup
		for i, rec := range recs {
			wg.Add(1)
			go func(i int, body []byte) {
				defer wg.Done()
				fused[i] = send(coalesced, "/api/v1/diagnose", "text/plain", body)
			}(i, logBody(t, rec))
		}
		awaitInCoalescer(t, co, len(recs))
		release()
		wg.Wait()
		for i, rep := range fused {
			var got DiagnosisResponse
			decodeOK(t, rep, &got)
			if rep.header.Get("X-AIIO-Coalesced") == "" {
				t.Errorf("%s: job %d did not take the coalesced path", label, i)
			}
			assertSameDiagnosis(t, &got, want[i], fmt.Sprintf("%s: coalesced job %d", label, i))
		}

		var gotBatch []*DiagnosisResponse
		decodeOK(t, send(batch, "/api/v1/diagnose/batch", "text/plain", batchBody.Bytes()), &gotBatch)
		if len(gotBatch) != len(recs) {
			t.Fatalf("%s: batch returned %d answers", label, len(gotBatch))
		}
		for i := range recs {
			assertSameDiagnosis(t, gotBatch[i], want[i], fmt.Sprintf("%s: batch job %d", label, i))
		}
		if !openBreaker {
			assertSameDiagnosis(t, want[2], want[0], label+": cache hit")
		}
	}
}

// TestHTMLHonoursCacheAndBreakers: the HTML form runs the same pipeline as
// the JSON endpoint — a repeat is a cache hit, and a breaker-open model is
// skipped and named on the page.
func TestHTMLHonoursCacheAndBreakers(t *testing.T) {
	ens := ensemble(t)
	s := NewServer(ens, fastOpts())
	set, _ := breakerClock(1, time.Hour)
	s.Breakers = set
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	postForm := func(rec *darshan.Record) reply {
		form := url.Values{"log": {string(logBody(t, rec))}}
		return send(srv, "/diagnose", "application/x-www-form-urlencoded", []byte(form.Encode()))
	}
	rec := testRecord()
	for i, want := range []string{"miss", "hit"} {
		rep := postForm(rec)
		if rep.err != nil || rep.status != http.StatusOK {
			t.Fatalf("form post %d: HTTP %d %v: %s", i, rep.status, rep.err, rep.body)
		}
		if got := rep.header.Get("X-AIIO-Cache"); got != want {
			t.Errorf("form post %d: X-AIIO-Cache = %q, want %q", i, got, want)
		}
	}
	if hits, misses := cacheCounters(t, srv); hits != 1 || misses != 1 {
		t.Errorf("/healthz hits=%d misses=%d after a form post and its repeat, want 1/1", hits, misses)
	}

	victim := ens.Models[0].Name()
	set.For(victim).Failure()
	other := coalesceRecord(60)
	rep := postForm(other)
	if rep.err != nil || rep.status != http.StatusOK {
		t.Fatalf("form post with an open breaker: HTTP %d %v: %s", rep.status, rep.err, rep.body)
	}
	html := string(rep.body)
	if !strings.Contains(html, "degraded diagnosis") || !strings.Contains(html, "circuit breaker open") ||
		!strings.Contains(html, victim) {
		t.Errorf("page does not report breaker-open %s as skipped:\n%s", victim, html)
	}
}

// TestUploadPersistFailureKeepsSwap: an upload whose registry write fails
// still goes live (it validated), under the old generation report, and the
// body says why it was not persisted.
func TestUploadPersistFailureKeepsSwap(t *testing.T) {
	ens := ensemble(t)
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ws := NewServer(ens, fastOpts())
	ws.Store = core.OpenStore(filepath.Join(blocker, "models")) // a path under a file: every save fails
	ws.SetGeneration(&core.LoadReport{Generation: 1})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()
	before := ws.view.Load()

	var buf bytes.Buffer
	if err := ens.Models[0].Save(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		PersistError string `json:"persist_error"`
		Generation   uint64 `json:"generation"`
	}
	decodeOK(t, send(srv, "/api/v1/models?name="+ens.Models[0].Name()+"&kind="+ens.Models[0].Kind(),
		"application/octet-stream", buf.Bytes()), &out)
	if out.PersistError == "" || out.Generation != 0 {
		t.Fatalf("upload response %+v, want a persist_error and no generation", out)
	}
	after := ws.view.Load()
	if after.version != before.version+1 || after.ens.Models[0] == before.ens.Models[0] {
		t.Fatal("the validated upload did not go live")
	}
	if after.rep != before.rep {
		t.Fatalf("generation report %+v, want the pre-upload report", after.rep)
	}
}
