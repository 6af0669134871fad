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

// TestCoalesceDuplicateFusion: a dogpile of identical cold requests
// collapses to far fewer ensemble passes than requests.
func TestCoalesceDuplicateFusion(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.CoalesceWindow = 50 * time.Millisecond
	s.CoalesceMax = 64
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

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
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	batches, fusedCount := s.coal.stats()
	if fusedCount != clients {
		t.Fatalf("coalescer saw %d requests, %d were sent", fusedCount, clients)
	}
	// All clients fire at once into a 50ms window: the dogpile must
	// collapse to a handful of batches (each one ensemble pass per distinct
	// job — and there is exactly one distinct job).
	if batches > uint64(clients/4) {
		t.Errorf("%d batches for %d identical concurrent requests — duplicate fusion is not collapsing the dogpile", batches, clients)
	}
}

// TestCoalesceWaiterDeadline: a waiter whose context dies while parked
// gets its error immediately; the batch serves the survivors.
func TestCoalesceWaiterDeadline(t *testing.T) {
	release := make(chan struct{})
	c := newCoalescer(time.Hour /* never flush by timer */, 2,
		func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error) {
			<-release
			return make([]*core.Diagnosis, len(recs)), nil
		})

	view := &servingView{}
	impatient, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	rec := coalesceRecord(8)
	go func() {
		_, err := c.submit(impatient, view, rec)
		done <- err
	}()

	// The impatient waiter must get its deadline error while the batch is
	// still parked (nothing has dispatched: max=2, one waiter).
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parked waiter returned %v, want deadline", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked waiter did not honor its deadline")
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
	select {
	case err := <-patient:
		if err != nil {
			t.Fatalf("surviving waiter: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("batch never served the surviving waiter")
	}
}

// TestCoalesceBatchDeadlineIsLatestWaiter: the fused pass is bounded by
// the slowest caller's deadline, not the fastest.
func TestCoalesceBatchDeadlineIsLatestWaiter(t *testing.T) {
	now := time.Now()
	short, cancelShort := context.WithDeadline(context.Background(), now.Add(50*time.Millisecond))
	defer cancelShort()
	long, cancelLong := context.WithDeadline(context.Background(), now.Add(10*time.Second))
	defer cancelLong()

	batch := []*coalesceWaiter{{ctx: short}, {ctx: long}}
	ctx, cancel := batchContext(batch)
	defer cancel()
	d, ok := ctx.Deadline()
	if !ok {
		t.Fatal("batch context has no deadline despite bounded waiters")
	}
	if d.Before(now.Add(5 * time.Second)) {
		t.Fatalf("batch deadline %v follows the impatient waiter, want the latest", d.Sub(now))
	}

	unbounded := []*coalesceWaiter{{ctx: short}, {ctx: context.Background()}}
	ctx2, cancel2 := batchContext(unbounded)
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("one unbounded waiter must make the batch unbounded")
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
