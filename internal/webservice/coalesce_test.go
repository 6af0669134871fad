package webservice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/workload"
)

// coalesceRecord builds a distinct deterministic job per scale.
func coalesceRecord(scale int) *darshan.Record {
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	cfg := workload.Patterns()[0].Config.Scale(scale, 4)
	rec, _ := cfg.Run("ior", 1, 5, params)
	return rec
}

// almostEqual is the 1e-9 parity bound the core determinism suite uses.
func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// holdPasses makes every pass of s's coalescer wait until release is
// called, so a test can line requests up behind a running pass
// deterministically. Defer release after deferring the test server's
// Close, which would otherwise wait on the held handlers.
func holdPasses(t *testing.T, s *Server) (co *coalescer, release func()) {
	t.Helper()
	co = s.coalescerIfEnabled()
	if co == nil {
		t.Fatal("coalescing is disabled")
	}
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	run := co.run
	co.run = func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error) {
		<-gate
		return run(ctx, v, recs)
	}
	return co, release
}

// awaitInCoalescer waits until n requests have entered co: dispatched,
// attached to a running pass, or parked.
func awaitInCoalescer(t *testing.T, co *coalescer, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		co.mu.Lock()
		in := int(co.fused) + len(co.pending)
		co.mu.Unlock()
		if in >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests reached the coalescer", in, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func assertParity(t *testing.T, got, want *DiagnosisResponse, label string) {
	t.Helper()
	if len(got.Models) != len(want.Models) || len(got.Factors) != len(want.Factors) {
		t.Fatalf("%s: shape mismatch: %d/%d models, %d/%d factors",
			label, len(got.Models), len(want.Models), len(got.Factors), len(want.Factors))
	}
	for i := range want.Models {
		if got.Models[i].Name != want.Models[i].Name ||
			!almostEqual(got.Models[i].PredictedMiBps, want.Models[i].PredictedMiBps) ||
			!almostEqual(got.Models[i].Weight, want.Models[i].Weight) {
			t.Errorf("%s: model %s prediction %v/%v weight %v/%v diverged",
				label, want.Models[i].Name,
				got.Models[i].PredictedMiBps, want.Models[i].PredictedMiBps,
				got.Models[i].Weight, want.Models[i].Weight)
		}
	}
	for i := range want.Factors {
		if got.Factors[i].Counter != want.Factors[i].Counter ||
			!almostEqual(got.Factors[i].Contribution, want.Factors[i].Contribution) {
			t.Errorf("%s: factor %d (%s) contribution %v, uncoalesced %v",
				label, i, want.Factors[i].Counter,
				got.Factors[i].Contribution, want.Factors[i].Contribution)
		}
	}
	if got.ClosestModel != want.ClosestModel {
		t.Errorf("%s: closest model %q vs %q", label, got.ClosestModel, want.ClosestModel)
	}
}

// TestCoalescedParity: concurrent single-job requests fused into one batch
// return results numerically identical (≤1e-9) to the uncoalesced path.
// The first request dispatches alone and is held running, so the other
// distinct misses park behind it and fuse.
func TestCoalescedParity(t *testing.T) {
	ens := ensemble(t)

	plain := NewServer(ens, fastOpts())
	plain.CacheSize = -1 // force real passes on both sides
	plainSrv := httptest.NewServer(plain.Handler())
	defer plainSrv.Close()

	fused := NewServer(ens, fastOpts())
	fused.CacheSize = -1
	fused.CoalesceWindow = 50 * time.Millisecond // wide: force fusion
	fused.CoalesceMax = 16
	fusedSrv := httptest.NewServer(fused.Handler())
	defer fusedSrv.Close()
	co, release := holdPasses(t, fused)
	defer release()

	const jobs = 6
	want := make([]*DiagnosisResponse, jobs)
	plainClient := NewClient(plainSrv.URL)
	for i := 0; i < jobs; i++ {
		var err error
		want[i], err = plainClient.Diagnose(coalesceRecord(12 + i))
		if err != nil {
			t.Fatalf("uncoalesced diagnose %d: %v", i, err)
		}
	}

	got := make([]*DiagnosisResponse, jobs)
	errs := make([]error, jobs)
	fusedClient := NewClient(fusedSrv.URL)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = fusedClient.Diagnose(coalesceRecord(12 + i))
		}(i)
	}
	awaitInCoalescer(t, co, jobs)
	release()
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("coalesced diagnose %d: %v", i, errs[i])
		}
		assertParity(t, got[i], want[i], fmt.Sprintf("job %d", i))
	}
	batches, fusedCount := fused.coal.stats()
	if fusedCount != jobs {
		t.Errorf("coalescer served %d requests, %d were sent", fusedCount, jobs)
	}
	if batches >= fusedCount {
		t.Errorf("no fusion happened (%d batches for %d requests) — the parity run did not exercise coalescing", batches, fusedCount)
	}
}

// TestCoalesceDuplicateFusion: a dogpile of identical cold requests costs
// exactly one ensemble pass: the first dispatches, and every duplicate
// arriving while it runs attaches to it.
func TestCoalesceDuplicateFusion(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.CoalesceWindow = 50 * time.Millisecond
	s.CoalesceMax = 64
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	co, release := holdPasses(t, s)
	defer release()

	const clients = 16
	rec := coalesceRecord(40)
	client := NewClient(srv.URL)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Diagnose(rec)
		}(i)
	}
	awaitInCoalescer(t, co, clients)
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	batches, fusedCount := co.stats()
	if fusedCount != clients {
		t.Fatalf("coalescer saw %d requests, %d were sent", fusedCount, clients)
	}
	if batches != 1 {
		t.Errorf("%d passes for %d identical concurrent requests, want 1", batches, clients)
	}
}

// TestCoalesceLoneMissSkipsWindow: a single cold miss with no pass running
// dispatches at once instead of waiting out the window for followers.
func TestCoalesceLoneMissSkipsWindow(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.CoalesceWindow = 10 * time.Second
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	start := time.Now()
	rep := send(srv, "/api/v1/diagnose", "text/plain", logBody(t, coalesceRecord(41)))
	elapsed := time.Since(start)
	var resp DiagnosisResponse
	decodeOK(t, rep, &resp)
	if elapsed > s.CoalesceWindow/2 {
		t.Errorf("lone miss took %v under a %v window", elapsed, s.CoalesceWindow)
	}
	if got := rep.header.Get("X-AIIO-Coalesced"); got != "1" {
		t.Errorf("X-AIIO-Coalesced = %q, want 1", got)
	}
}

// TestCoalesceAttachWithinView: a duplicate attaches to a running pass of
// its job — with or without a deadline — only when the pass was computed
// by the duplicate's own view; under a newer view it gets a pass of its
// own.
func TestCoalesceAttachWithinView(t *testing.T) {
	gate := make(chan struct{})
	diagOf := map[*servingView]*core.Diagnosis{}
	c := newCoalescer(time.Millisecond, 8,
		func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error) {
			<-gate
			out := make([]*core.Diagnosis, len(recs))
			for i := range out {
				out[i] = diagOf[v]
			}
			return out, nil
		})
	v1, v2 := &servingView{version: 1}, &servingView{version: 2}
	diagOf[v1], diagOf[v2] = &core.Diagnosis{}, &core.Diagnosis{}
	rec := coalesceRecord(42)

	bounded, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type answer struct {
		res coalescedResult
		err error
	}
	submit := func(ctx context.Context, v *servingView) chan answer {
		ch := make(chan answer, 1)
		go func() {
			res, err := c.submit(ctx, v, rec)
			ch <- answer{res, err}
		}()
		return ch
	}
	await := func(passes, requests uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			if b, f := c.stats(); b == passes && f == requests {
				return
			}
			if time.Now().After(deadline) {
				b, f := c.stats()
				t.Fatalf("%d passes serving %d requests, want %d serving %d", b, f, passes, requests)
			}
			time.Sleep(time.Millisecond)
		}
	}

	first := submit(bounded, v1) // dispatches at once
	await(1, 1)
	attached := submit(bounded, v1)
	await(1, 2)
	unbounded := submit(context.Background(), v1) // attaches, lifting the bound
	await(1, 3)
	swapped := submit(context.Background(), v2) // newer view: own pass
	await(2, 4)
	close(gate)

	for _, tc := range []struct {
		name    string
		ch      chan answer
		view    *servingView
		batched int
	}{
		{"first", first, v1, 3},
		{"attached duplicate", attached, v1, 3},
		{"unbounded duplicate", unbounded, v1, 3},
		{"duplicate under a newer view", swapped, v2, 1},
	} {
		a := <-tc.ch
		if a.err != nil {
			t.Fatalf("%s: %v", tc.name, a.err)
		}
		if a.res.diag != diagOf[tc.view] || a.res.batched != tc.batched {
			t.Errorf("%s: served by the wrong pass (batched=%d, want %d)", tc.name, a.res.batched, tc.batched)
		}
	}
}

// TestCoalesceWaiterDeadline: a waiter whose context dies while parked
// behind a running pass gets its error immediately; its batch serves the
// survivors.
func TestCoalesceWaiterDeadline(t *testing.T) {
	release := make(chan struct{})
	c := newCoalescer(time.Hour /* never flush by timer */, 2,
		func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error) {
			<-release
			return make([]*core.Diagnosis, len(recs)), nil
		})

	view := &servingView{}
	// A lone miss dispatches at once and holds a pass running, so the
	// requests below park behind it.
	running := make(chan error, 1)
	go func() {
		_, err := c.submit(context.Background(), view, coalesceRecord(7))
		running <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); ; {
		if batches, _ := c.stats(); batches == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the lone miss never dispatched")
		}
		time.Sleep(time.Millisecond)
	}

	impatient, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	rec := coalesceRecord(8)
	go func() {
		_, err := c.submit(impatient, view, rec)
		done <- err
	}()

	// The impatient waiter must get its deadline error while its batch is
	// still parked (nothing more has dispatched: max=2, one parked waiter).
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parked waiter returned %v, want deadline", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked waiter did not honor its deadline")
	}
	if batches, _ := c.stats(); batches != 1 {
		t.Fatalf("%d passes dispatched while one waiter was parked, want 1", batches)
	}

	// A second submit fills the batch (max=2) and dispatches; the batch
	// still serves even though its first waiter gave up.
	patient := make(chan error, 1)
	go func() {
		_, err := c.submit(context.Background(), view, coalesceRecord(9))
		patient <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	for name, ch := range map[string]chan error{"surviving waiter": patient, "running pass": running} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s was never served", name)
		}
	}
}

// TestCoalesceBatchDeadlineIsLatestWaiter: a pass runs until the latest
// deadline among its waiters — including a duplicate that attached after
// it started — and without bound once a waiter has no deadline.
func TestCoalesceBatchDeadlineIsLatestWaiter(t *testing.T) {
	ended := make(chan time.Time, 1)
	release := make(chan struct{})
	c := newCoalescer(time.Hour, 8,
		func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error) {
			select {
			case <-ctx.Done():
				ended <- time.Now()
				return nil, ctx.Err()
			case <-release:
				return make([]*core.Diagnosis, len(recs)), nil
			}
		})
	view := &servingView{}
	submit := func(ctx context.Context, rec *darshan.Record, want uint64) chan error {
		ch := make(chan error, 1)
		go func() {
			_, err := c.submit(ctx, view, rec)
			ch <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); ; {
			if _, f := c.stats(); f == want {
				return ch
			}
			if time.Now().After(deadline) {
				t.Fatalf("request %d never reached a pass", want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Bounded waiters: the run outlives the impatient first caller and
	// ends at the deadline of the duplicate that attached later.
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	long, cancelLong := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancelLong()
	rec := coalesceRecord(8)
	impatient := submit(short, rec, 1)
	patient := submit(long, rec, 2)
	if err := <-impatient; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient waiter returned %v, want its deadline", err)
	}
	longDeadline, _ := long.Deadline()
	if at := <-ended; at.Before(longDeadline) {
		t.Fatalf("pass cancelled %v before the latest waiter's deadline", longDeadline.Sub(at))
	}
	if err := <-patient; err == nil {
		t.Fatal("patient waiter got a result from a cancelled pass")
	}

	// One unbounded waiter makes the pass unbounded.
	short2, cancelShort2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort2()
	rec = coalesceRecord(9)
	impatient = submit(short2, rec, 3)
	unbounded := submit(context.Background(), rec, 4)
	if err := <-impatient; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient waiter returned %v, want its deadline", err)
	}
	select {
	case <-ended:
		t.Fatal("a pass with an unbounded waiter was cancelled")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-unbounded; err != nil {
		t.Fatalf("unbounded waiter: %v", err)
	}
}

// TestCoalesceBreakerOpenError: a batch refused because every breaker is
// open surfaces the typed error to each waiter.
func TestCoalesceBreakerOpenError(t *testing.T) {
	c := newCoalescer(time.Millisecond, 4,
		func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error) {
			return nil, errAllBreakersOpen
		})
	_, err := c.submit(context.Background(), &servingView{}, coalesceRecord(8))
	if !errors.Is(err, errAllBreakersOpen) {
		t.Fatalf("got %v, want errAllBreakersOpen", err)
	}
}
