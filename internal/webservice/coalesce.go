package webservice

import (
	"context"
	"sync"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// Request micro-batch coalescing: single-job diagnose requests that miss
// the cache within a small window are gathered, deduplicated, run through
// one diagnoseMisses pass, and the per-job results are demultiplexed back
// to their callers (the shape of x/sync's singleflight, over a window).
// Two effects stack:
//
//   - N distinct jobs in a window become one sharded ensemble pass instead
//     of N independent passes — one breaker partition, one outcome
//     accounting, and the batch engine's row-paired kernels.
//   - Duplicate jobs in a window (the dogpile: many clients diagnosing the
//     same cold job before any of them has filled the cache) collapse to a
//     single diagnosis fanned out to every waiter.
//
// A batch never spans a serving-view swap: each waiter brings the view its
// request loaded, and a waiter with a newer view dispatches the parked
// batch before opening its own, so every result is computed by the view
// its response is stamped with.
//
// Each waiter keeps its own context: a caller whose deadline expires while
// the fused batch is still running gets its structured 503 immediately,
// while the batch runs on for the survivors. The batch itself is bounded by
// the latest deadline among its waiters, so a fused pass can never outlive
// every caller that wanted it. Because the diagnosis engine is
// deterministic and seeds its explainers independently of batch position,
// a coalesced result is numerically identical (≤1e-9, the same bound the
// core parity suite enforces) to the uncoalesced one.

// DefaultCoalesceWindow is how long the first waiter of a batch holds the
// batch open for followers. ~2ms is far below a single ensemble pass
// (milliseconds to seconds) but wide enough to fuse a concurrent flood.
const DefaultCoalesceWindow = 2 * time.Millisecond

// DefaultCoalesceMax caps a fused batch; a full batch dispatches
// immediately instead of waiting out the window.
const DefaultCoalesceMax = 32

// coalescedResult is what one waiter receives from its fused batch.
type coalescedResult struct {
	diag *core.Diagnosis
	// batched is how many requests the fused pass served (1 = no fusion).
	batched int
	err     error
}

// coalesceWaiter is one parked single-job request.
type coalesceWaiter struct {
	view *servingView
	rec  *darshan.Record
	ctx  context.Context
	// ch is buffered: the dispatcher never blocks on a waiter that gave up.
	ch chan coalescedResult
}

// coalescer fuses single-job diagnose requests into micro-batches.
type coalescer struct {
	window time.Duration
	max    int
	// run diagnoses one fused batch of distinct jobs against the view its
	// waiters loaded; it is Server.diagnoseMisses.
	run func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error)

	mu      sync.Mutex
	pending []*coalesceWaiter
	timer   *time.Timer

	// batches/fused count dispatched batches and the requests they served,
	// for /healthz observability.
	batches uint64
	fused   uint64
}

func newCoalescer(window time.Duration, max int,
	run func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error)) *coalescer {
	if max <= 0 {
		max = DefaultCoalesceMax
	}
	return &coalescer{window: window, max: max, run: run}
}

// submit parks the request until its batch flushes and returns its share of
// the fused result. A ctx expiry while parked or while the batch runs
// returns ctx's error; the batch itself is unaffected.
func (c *coalescer) submit(ctx context.Context, v *servingView, rec *darshan.Record) (coalescedResult, error) {
	w := &coalesceWaiter{view: v, rec: rec, ctx: ctx, ch: make(chan coalescedResult, 1)}
	c.mu.Lock()
	if len(c.pending) > 0 && c.pending[0].view != v {
		go c.dispatch(c.takeLocked())
	}
	c.pending = append(c.pending, w)
	if len(c.pending) >= c.max {
		// A full batch dispatches now; the window only bounds how long a
		// partial batch waits for followers.
		batch := c.takeLocked()
		c.mu.Unlock()
		go c.dispatch(batch)
	} else {
		if len(c.pending) == 1 {
			c.timer = time.AfterFunc(c.window, c.flush)
		}
		c.mu.Unlock()
	}
	select {
	case res := <-w.ch:
		return res, res.err
	case <-ctx.Done():
		return coalescedResult{}, ctx.Err()
	}
}

// flush is the window timer's callback: dispatch whatever accumulated.
func (c *coalescer) flush() {
	c.mu.Lock()
	batch := c.takeLocked()
	c.mu.Unlock()
	if len(batch) > 0 {
		c.dispatch(batch)
	}
}

// takeLocked detaches the pending batch and disarms the timer. Callers hold
// c.mu.
func (c *coalescer) takeLocked() []*coalesceWaiter {
	batch := c.pending
	c.pending = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// stats reports dispatched batches and the requests they served.
func (c *coalescer) stats() (batches, fused uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches, c.fused
}

// dispatch runs one fused batch: duplicate jobs are collapsed to one
// record, the batch executes once, and every waiter — including each
// duplicate — receives its job's result.
func (c *coalescer) dispatch(batch []*coalesceWaiter) {
	c.mu.Lock()
	c.batches++
	c.fused += uint64(len(batch))
	c.mu.Unlock()
	// Collapse duplicates: waiters are grouped by exact job identity (the
	// same full-bits key the diagnosis cache uses; the batch shares one
	// view), so the fused pass diagnoses each distinct job once.
	groupOf := make([]int, len(batch))
	index := make(map[string]int, len(batch))
	var recs []*darshan.Record
	for i, w := range batch {
		key := cacheKey(0, w.rec)
		g, ok := index[key]
		if !ok {
			g = len(recs)
			index[key] = g
			recs = append(recs, w.rec)
		}
		groupOf[i] = g
	}
	ctx, cancel := batchContext(batch)
	diags, err := c.run(ctx, batch[0].view, recs)
	cancel()
	for i, w := range batch {
		res := coalescedResult{batched: len(batch), err: err}
		if err == nil {
			res.diag = diags[groupOf[i]]
		}
		w.ch <- res
	}
}

// batchContext bounds the fused pass by the latest deadline among its
// waiters: the batch must be allowed to outlive any single impatient
// caller (the others still want the result), but never every caller.
func batchContext(batch []*coalesceWaiter) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, w := range batch {
		d, ok := w.ctx.Deadline()
		if !ok {
			// One unbounded waiter means the batch is unbounded too.
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// coalescerIfEnabled returns the server's coalescer, built at first use
// when CoalesceWindow > 0.
func (s *Server) coalescerIfEnabled() *coalescer {
	s.coalesceOnce.Do(func() {
		if s.CoalesceWindow > 0 {
			s.coal = newCoalescer(s.CoalesceWindow, s.CoalesceMax, s.diagnoseMisses)
		}
	})
	return s.coal
}
