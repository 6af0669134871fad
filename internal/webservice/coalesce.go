package webservice

import (
	"context"
	"sync"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// Request micro-batch coalescing: single-job diagnose requests that miss
// the cache are gathered, deduplicated, run through one diagnoseMisses
// pass, and the per-job results are demultiplexed back to their callers
// (the shape of x/sync's singleflight, over a window). Two effects stack:
//
//   - N distinct jobs that arrive while a pass runs become one sharded
//     ensemble pass instead of N independent passes — one breaker
//     partition, one outcome accounting, and the batch engine's row-paired
//     kernels.
//   - Duplicate jobs (the dogpile: many clients diagnosing the same cold
//     job before any of them has filled the cache) collapse to a single
//     diagnosis fanned out to every waiter: a duplicate of a job in a
//     running pass attaches to that pass, and duplicates parked together
//     are diagnosed once.
//
// The window is only ever waited out behind a running pass. A miss that
// finds no pass running and none parked has no follower to wait for and
// dispatches at once; a miss that arrives while a pass runs parks, and the
// window (or a full batch) dispatches what has gathered.
//
// A batch never spans a serving-view swap: each waiter brings the view its
// request loaded, a waiter with a newer view dispatches the parked batch
// before opening its own, and a duplicate attaches only to a pass computed
// by its own view, so every result is computed by the view its response is
// stamped with.
//
// Each waiter keeps its own context: a caller whose deadline expires while
// the fused batch is still running gets its structured 503 immediately,
// while the batch runs on for the survivors. The pass itself is bounded by
// the latest deadline among its waiters — a duplicate that attaches
// extends that bound to its own deadline — so a fused pass can never
// outlive every caller that wanted it. Because the diagnosis
// engine is deterministic and seeds its explainers independently of batch
// position, a coalesced result is numerically identical (≤1e-9, the same
// bound the core parity suite enforces) to the uncoalesced one.

// DefaultCoalesceWindow is how long a miss parked behind a running pass
// holds its batch open for followers. ~2ms is far below a single ensemble
// pass (milliseconds to seconds) but wide enough to fuse a concurrent
// flood.
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

// coalesceWaiter is one single-job request, parked or attached to a pass.
type coalesceWaiter struct {
	view *servingView
	rec  *darshan.Record
	key  string // cacheKey(0, rec): the job identity duplicates share
	ctx  context.Context
	// ch is buffered: the dispatcher never blocks on a waiter that gave up.
	ch chan coalescedResult
}

// pass is one dispatched diagnoseMisses run over distinct jobs.
type pass struct {
	view *servingView
	recs []*darshan.Record
	keys []string
	// waiters[g] are the requests for job g; duplicates arriving while the
	// pass runs append here under coalescer.mu.
	waiters [][]*coalesceWaiter
	served  int

	// ctx bounds the run by the latest deadline among all of the pass's
	// waiters, attached ones included: the run must be allowed to outlive
	// any single impatient caller (the others still want the result), but
	// never every caller. One waiter without a deadline makes the pass
	// unbounded. The fields below are guarded by coalescer.mu.
	ctx       context.Context
	cancel    context.CancelFunc
	deadline  time.Time
	unbounded bool
	expired   bool // the bound passed and ctx was cancelled
	timer     *time.Timer
}

// inflightJob locates one job of a running pass.
type inflightJob struct {
	p *pass
	g int
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
	// running counts passes in flight; inflight maps each of their jobs'
	// keys to the latest pass computing it.
	running  int
	inflight map[string]inflightJob

	// batches/fused count dispatched passes and the requests they served,
	// for /healthz observability.
	batches uint64
	fused   uint64
}

func newCoalescer(window time.Duration, max int,
	run func(ctx context.Context, v *servingView, recs []*darshan.Record) ([]*core.Diagnosis, error)) *coalescer {
	if max <= 0 {
		max = DefaultCoalesceMax
	}
	return &coalescer{window: window, max: max, run: run, inflight: map[string]inflightJob{}}
}

// submit attaches the request to a running pass of the same job, or parks
// it until its batch dispatches, and returns its share of the fused
// result. A ctx expiry while parked or while the pass runs returns ctx's
// error; the pass itself is unaffected.
func (c *coalescer) submit(ctx context.Context, v *servingView, rec *darshan.Record) (coalescedResult, error) {
	w := &coalesceWaiter{view: v, rec: rec, key: cacheKey(0, rec), ctx: ctx, ch: make(chan coalescedResult, 1)}
	c.mu.Lock()
	if j, ok := c.inflight[w.key]; ok && j.p.view == v && !j.p.expired {
		j.p.waiters[j.g] = append(j.p.waiters[j.g], w)
		j.p.served++
		c.coverLocked(j.p, ctx)
		c.fused++
		c.mu.Unlock()
		return w.wait()
	}
	if len(c.pending) > 0 && c.pending[0].view != v {
		c.startLocked(c.takeLocked())
	}
	c.pending = append(c.pending, w)
	switch {
	case len(c.pending) == 1 && c.running == 0, len(c.pending) >= c.max:
		// Idle: no pass is running, so no follower can be expected within
		// the window. Full: the window only bounds how long a partial
		// batch waits.
		c.startLocked(c.takeLocked())
	case len(c.pending) == 1:
		c.timer = time.AfterFunc(c.window, c.flush)
	}
	c.mu.Unlock()
	return w.wait()
}

// wait blocks until w's pass delivers or w's context ends.
func (w *coalesceWaiter) wait() (coalescedResult, error) {
	select {
	case res := <-w.ch:
		return res, res.err
	case <-w.ctx.Done():
		return coalescedResult{}, w.ctx.Err()
	}
}

// flush is the window timer's callback: dispatch whatever accumulated.
func (c *coalescer) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if batch := c.takeLocked(); len(batch) > 0 {
		c.startLocked(batch)
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

// startLocked launches one pass over batch: duplicate jobs (grouped by
// exact job identity, the same full-bits key the diagnosis cache uses; the
// batch shares one view) collapse to one record, and each job is published
// in c.inflight for later duplicates to attach to. Callers hold c.mu.
func (c *coalescer) startLocked(batch []*coalesceWaiter) {
	p := &pass{view: batch[0].view, served: len(batch)}
	index := make(map[string]int, len(batch))
	for _, w := range batch {
		g, ok := index[w.key]
		if !ok {
			g = len(p.recs)
			index[w.key] = g
			p.recs = append(p.recs, w.rec)
			p.keys = append(p.keys, w.key)
			p.waiters = append(p.waiters, nil)
		}
		p.waiters[g] = append(p.waiters[g], w)
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	for _, w := range batch {
		c.coverLocked(p, w.ctx)
	}
	for g, key := range p.keys {
		c.inflight[key] = inflightJob{p: p, g: g}
	}
	c.running++
	c.batches++
	c.fused += uint64(len(batch))
	go c.dispatch(p)
}

// coverLocked extends p's bound to cover a waiter with context ctx.
// Callers hold c.mu.
func (c *coalescer) coverLocked(p *pass, ctx context.Context) {
	d, ok := ctx.Deadline()
	switch {
	case p.unbounded:
	case !ok:
		p.unbounded = true
		if p.timer != nil {
			p.timer.Stop()
		}
	case d.After(p.deadline):
		p.deadline = d
		if p.timer == nil {
			p.timer = time.AfterFunc(time.Until(d), func() { c.expire(p) })
		} else {
			p.timer.Reset(time.Until(d))
		}
	}
}

// expire is p's bound timer: it cancels the run unless an attached waiter
// pushed the bound later in the meantime.
func (c *coalescer) expire(p *pass) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !p.unbounded && !time.Now().Before(p.deadline) {
		p.expired = true
		p.cancel()
	}
}

// dispatch runs one pass and delivers each job's result to every waiter
// for it — including each duplicate, parked or attached.
func (c *coalescer) dispatch(p *pass) {
	diags, err := c.run(p.ctx, p.view, p.recs)
	c.mu.Lock()
	p.cancel()
	if p.timer != nil {
		p.timer.Stop()
	}
	c.running--
	for _, key := range p.keys {
		if c.inflight[key].p == p {
			delete(c.inflight, key)
		}
	}
	served := p.served
	c.mu.Unlock()
	for g, ws := range p.waiters {
		for _, w := range ws {
			res := coalescedResult{batched: served, err: err}
			if err == nil {
				res.diag = diags[g]
			}
			w.ch <- res
		}
	}
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
