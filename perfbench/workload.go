package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// Workload sizes. Rates are open-loop request rates in requests per second.
// Each phase's length is a fixed share of the run's --seconds.
const (
	// coldRate is about half of one core's cold-diagnosis capacity (a cold
	// job costs about 25 ms of server CPU), so the server is busy but not
	// saturated and the latency is the diagnosis, not a queue.
	coldRate = 20.0
	// hotRate is five times coldRate, where per-request overheads (parse,
	// cache, advise, encode, HTTP) make up all of the server's work. At
	// 400/s the generator and the server contend for the two cores, and
	// over 5 seeds the p50 spread (IQR over median) was 0.26 against 0.07
	// at this rate.
	hotRate = 100.0
	// hotSet is the hot-repeat working set: well inside the server's
	// 1024-entry result cache.
	hotSet = 128
	// hotZipf and hotZipfV shape hot-repeat's Zipf(-Mandelbrot) picks over
	// the working set, P(k) ∝ (hotZipfV+k)^-hotZipf: the hottest job is
	// picked about 6× as often as the coldest, and no handful of jobs carries the
	// median, so the percentiles do not hinge on which jobs a seed makes
	// hottest.
	hotZipf  = 1.1
	hotZipfV = 32
	// batchJobs is the size of one /api/v1/diagnose/batch body.
	batchJobs = 16
	// ingestBatchJobs, ingestDups and ingestInvalid shape one
	// /api/v1/jobs body: 29 fresh jobs, 2 re-shipped, 1 with a NaN counter.
	ingestBatchJobs = 32
	ingestDups      = 2
	ingestInvalid   = 1
	ingestFresh     = ingestBatchJobs - ingestDups - ingestInvalid
	// ingestRate is the open-loop rate of ingest batches.
	ingestRate = 8.0
	// retrainAfter is the server's -retrain-after backlog threshold.
	retrainAfter = 256
	// lifecycleCycles is K, the number of retrain→promote cycles every
	// workload's lifecycle phase runs to.
	lifecycleCycles = 3
	// cycleBatches is how many batches reach the retrain threshold.
	cycleBatches = (retrainAfter + ingestFresh - 1) / ingestFresh
	// ingestPlanBatches is ingest-retrain's plan length: K cycles and a
	// spare one.
	ingestPlanBatches = (lifecycleCycles + 1) * cycleBatches
	// lifecycleDiagRate and lifecycleHotSet shape ingest-retrain's
	// diagnosis stream: low rate over a small hot set, so each promotion's
	// cache purge shows as a burst of misses beside the retrain, about a
	// fifth of the stream (p50 a hit, p90 a miss), without queueing the
	// stream's one connection far behind its schedule.
	lifecycleDiagRate = 25.0
	lifecycleHotSet   = 16
	// coldWarm is the number of untimed cold diagnoses before timing.
	coldWarm = 4
)

// Phase shares of --seconds.
const (
	coldSinglesShare = 0.4
	coldBatchShare   = 0.35
	hotSinglesShare  = 0.4
	hotBatchShare    = 0.25
	// lifecycleShare is ingest-retrain's concurrent diagnosis-and-ingest
	// phase; its K cycles must fit in it, or it runs on until they finish.
	lifecycleShare   = 0.8
	lifeBatchShare   = 0.2
	hotWarmSeconds   = 0.5
	maxBatchPerSec   = 150 // upper bound on cold batch throughput, sizes the job pool
	batchOrderLength = 4096
)

// serverFlags are aiio-server's flags per workload. Every workload runs the
// binary's defaults for the diagnosis path; the set-up's job log only adds
// the ingest endpoint, which only ingest-retrain uses. ingest-retrain adds
// the backlog retrain trigger and arms the drift monitor, which turns the
// canary gate on; the detector thresholds sit far above anything a
// same-distribution stream reaches, so every retrain is backlog-triggered.
func serverFlags(workload string) func(models, jl string) []string {
	return func(models, jl string) []string {
		f := []string{"-models", models, "-joblog-dir", jl}
		if workload == "ingest-retrain" {
			f = append(f, "-retrain-after", strconv.Itoa(retrainAfter), "-drift-psi", "5", "-drift-error-ratio", "1000")
		}
		return f
	}
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	jobs        []job   // the diagnosis jobs the indices below refer to
	warmBatches [][]int // untimed batch diagnoses
	warm        []int   // untimed single-job diagnoses
	singles     []int   // the timed open loop's jobs, in order
	batches     [][]int // closed-loop batch bodies, handed out in order
	plan        []ingestBatch
}

// makeInputs generates a workload's inputs for a run of secs seconds.
// corpus is the set-up log database (re-shipped duplicates come from it).
func makeInputs(workload string, seed int64, secs float64, corpus []*darshan.Record) (*inputs, error) {
	in := &inputs{}
	seq := func(lo, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = lo + i
		}
		return out
	}
	var err error
	switch workload {
	case "cold-distinct":
		nSingles := int(coldRate * coldSinglesShare * secs)
		nBatches := int(maxBatchPerSec*coldBatchShare*secs)/batchJobs + 1
		if in.jobs, err = distinctJobs(seed, "cold", coldWarm+nSingles+nBatches*batchJobs); err != nil {
			return nil, err
		}
		in.warm = seq(0, coldWarm)
		in.singles = seq(coldWarm, nSingles)
		for b := 0; b < nBatches; b++ {
			in.batches = append(in.batches, seq(coldWarm+nSingles+b*batchJobs, batchJobs))
		}
	case "hot-repeat":
		if in.jobs, err = distinctJobs(seed, "hot", hotSet); err != nil {
			return nil, err
		}
		for lo := 0; lo < hotSet; lo += batchJobs {
			in.warmBatches = append(in.warmBatches, seq(lo, batchJobs))
		}
		nWarm := int(hotRate * hotWarmSeconds)
		picks := zipfPicks(seed, "hot-picks", hotSet, nWarm+int(hotRate*hotSinglesShare*secs))
		in.warm, in.singles = picks[:nWarm], picks[nWarm:]
		bp := zipfPicks(seed, "hot-batch-picks", hotSet, batchOrderLength*batchJobs)
		for b := 0; b < batchOrderLength; b++ {
			in.batches = append(in.batches, bp[b*batchJobs:(b+1)*batchJobs])
		}
	case "ingest-retrain":
		if in.jobs, err = distinctJobs(seed, "lifecycle-hot", lifecycleHotSet); err != nil {
			return nil, err
		}
		in.warm = seq(0, lifecycleHotSet)
		rng := rand.New(rand.NewSource(seedFor(seed, "lifecycle-picks")))
		// Room for the phase to run long while the K cycles finish.
		in.singles = make([]int, int(4*lifecycleDiagRate*lifecycleShare*secs)+600)
		for i := range in.singles {
			in.singles[i] = rng.Intn(lifecycleHotSet)
		}
		for b := 0; b < batchOrderLength; b++ {
			in.batches = append(in.batches, rng.Perm(lifecycleHotSet))
		}
		in.plan = ingestPlan(seed, corpus, ingestPlanBatches, ingestBatchJobs, ingestDups, ingestInvalid)
	default:
		return nil, fmt.Errorf("unknown workload %q (want cold-distinct, hot-repeat or ingest-retrain)", workload)
	}
	return in, nil
}

// digest hashes the request stream the inputs make: every body in the
// order it would be sent.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	for _, group := range [][][]int{in.warmBatches, {in.warm, in.singles}, in.batches} {
		for _, idx := range group {
			for _, j := range idx {
				h.Write(in.jobs[j].body)
			}
		}
	}
	for _, b := range in.plan {
		h.Write(b.body)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// op is one HTTP operation of the run.
type op struct {
	kind   string // diagnose, batch, ingest
	jobs   []int  // indices into the job table (diagnose, batch)
	ingest int    // index into the ingest plan
	rep    *reply
	fail   string // why the op failed, "" when it succeeded
}

// run holds one benchmark run's state.
type run struct {
	workload string
	seed     int64
	secs     float64
	work     string // scratch directory of the run
	hc       *http.Client
	d        *deployment
	in       *inputs

	mu  sync.Mutex
	ops []*op
	// first holds the first body served per (generation, job). A later
	// single-job answer with identical bytes needs no parity check of its
	// own, so its body is dropped as it arrives; that keeps the generator's
	// heap, and its GC pauses, small at hot-repeat's rate.
	first map[string][]byte

	// Measurements the report is built from.
	diag      []timing // timed single-job diagnoses
	diagOps   []*op
	batchOps  []*op
	batchSecs float64
	ingestTm  []timing
	ingestOps []*op
	retrains  []float64
	cpuMS     float64
	cpuReqs   int
	lateness  map[string][]timing
	checkErr  []string
}

func (r *run) failf(format string, a ...any) {
	r.mu.Lock()
	r.checkErr = append(r.checkErr, fmt.Sprintf(format, a...))
	r.mu.Unlock()
}

func (r *run) send(o *op, path string, body []byte) *op {
	var err error
	o.rep, err = post(context.Background(), r.hc, r.d.srv.base+path, body)
	switch {
	case err != nil:
		o.fail = "transport: " + err.Error()
	case o.rep.status != http.StatusOK:
		o.fail = fmt.Sprintf("status %d: %.200s", o.rep.status, o.rep.body)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, o)
	if o.kind == "diagnose" && o.fail == "" {
		key := o.rep.header.Get("X-AIIO-Generation") + "/" + strconv.Itoa(o.jobs[0])
		switch prev, ok := r.first[key]; {
		case !ok:
			r.first[key] = o.rep.body
		case bytes.Equal(prev, o.rep.body):
			o.rep.body = nil
		case o.rep.header.Get("X-AIIO-Cache") != "hit":
		case r.workload == "ingest-retrain" && bytes.Equal(withoutAdvisories(prev), withoutAdvisories(o.rep.body)):
			// Same cached diagnosis; only the live lifecycle advisories
			// moved (see withoutAdvisories). The first body's parity check
			// covers this one.
			o.rep.body = nil
		default:
			o.fail = "cached body differs from the first body served for this job: " + firstDiff(prev, o.rep.body)
		}
	}
	return o
}

func (r *run) diagnose(i int) *op {
	return r.send(&op{kind: "diagnose", jobs: []int{i}}, "/api/v1/diagnose", r.in.jobs[i].body)
}

func (r *run) batch(idx []int) *op {
	return r.send(&op{kind: "batch", jobs: idx}, "/api/v1/diagnose/batch", batchBody(r.in.jobs, idx))
}

// cpuWindow measures server CPU over fn: sampled only at its start and end,
// so warm-up and verification never count. fn returns the requests it
// completed.
func (r *run) cpuWindow(fn func() int) error {
	c0, err := r.d.srv.cpuTime()
	if err != nil {
		return err
	}
	reqs := fn()
	c1, err := r.d.srv.cpuTime()
	if err != nil {
		return err
	}
	r.cpuMS, r.cpuReqs = ms(c1-c0), reqs
	return nil
}

// singles runs an open loop of single-job diagnoses of jobs at rate over
// conns connections, for d or until stop reports true (stop nil: all of
// jobs' prefix that fits in d).
func (r *run) singles(name string, rate float64, d time.Duration, conns int, jobs []int, stop func() bool) ([]timing, []*op) {
	offs := schedule(rate, d)
	if len(offs) > len(jobs) {
		offs = offs[:len(jobs)]
	}
	ops := make([]*op, len(offs))
	tm, n := openLoop(time.Now(), offs, conns, stop, func(i int) { ops[i] = r.diagnose(jobs[i]) })
	r.noteLateness(name, tm)
	return tm, ops[:n]
}

// batchPhase runs the closed-loop batch phase: two clients, each posting
// the next batch body as soon as its previous answer arrives, for d or
// until the bodies run out.
func (r *run) batchPhase(d time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	closedLoop(maxConns, start.Add(d), func() bool {
		b := int(next.Add(1)) - 1
		if b >= len(r.in.batches) {
			return false
		}
		o := r.batch(r.in.batches[b])
		mu.Lock()
		r.batchOps = append(r.batchOps, o)
		mu.Unlock()
		return true
	})
	r.batchSecs = time.Since(start).Seconds()
}

func (r *run) noteLateness(name string, tm []timing) {
	if r.lateness == nil {
		r.lateness = map[string][]timing{}
	}
	r.lateness[name] = append(r.lateness[name], tm...)
}

// lifecycle runs k retrain→promote cycles. Each cycle ships the next ingest
// batches as an open loop on one connection until an ack reports that it
// triggered a retrain, then waits for the new generation to serve before
// the next cycle ships again; every retrain therefore drains about
// retrainAfter fresh jobs, and no (k+1)-th cycle can start. Each ack's
// counts are checked against the plan. retrain_s samples run from the
// triggering ack to the first /readyz that reports the new generation.
func (r *run) lifecycle(k int) error {
	gen0, err := servingGeneration(context.Background(), r.hc, r.d.srv.base)
	if err != nil {
		return err
	}
	next := 0
	for c := 1; c <= k; c++ {
		var triggered atomic.Bool
		var trigAt time.Time
		rest := r.in.plan[next:]
		offs := schedule(ingestRate, time.Duration(float64(len(rest))/ingestRate*float64(time.Second)))
		ops := make([]*op, len(offs))
		tm, n := openLoop(time.Now(), offs, 1, triggered.Load, func(i int) {
			if triggered.Load() {
				return
			}
			var ir *webservice.IngestResponse
			ops[i], ir = r.ingest(next + i)
			if ir != nil && ir.RetrainTriggered {
				trigAt = time.Now()
				triggered.Store(true)
			}
		})
		for i, o := range ops[:n] {
			if o != nil {
				r.ingestTm = append(r.ingestTm, tm[i])
				r.ingestOps = append(r.ingestOps, o)
				next++
			}
		}
		if !triggered.Load() {
			return fmt.Errorf("ingest plan exhausted before retrain cycle %d of %d", c, k)
		}
		want := gen0 + uint64(c)
		for {
			g, err := servingGeneration(context.Background(), r.hc, r.d.srv.base)
			if err != nil {
				return err
			}
			if g >= want {
				if g > want {
					r.failf("generation %d serving after cycle %d, want %d", g, c, want)
				}
				r.retrains = append(r.retrains, time.Since(trigAt).Seconds())
				break
			}
			if time.Since(trigAt) > 90*time.Second {
				return fmt.Errorf("generation %d not serving 90s after its retrain was triggered", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	r.noteLateness("ingest", r.ingestTm)
	return nil
}

// ingest ships plan batch i and checks its ack against the plan's counts.
func (r *run) ingest(i int) (*op, *webservice.IngestResponse) {
	b := r.in.plan[i]
	o := r.send(&op{kind: "ingest", ingest: i}, "/api/v1/jobs", b.body)
	if o.fail != "" {
		return o, nil
	}
	var ir webservice.IngestResponse
	if err := json.Unmarshal(o.rep.body, &ir); err != nil {
		o.fail = "decode ingest ack: " + err.Error()
		return o, nil
	}
	if ir.Accepted != b.fresh || ir.Duplicates != b.dups || ir.Quarantined != 0 || ir.ParseRejected != b.invalid {
		o.fail = fmt.Sprintf("ingest ack %+v, want accepted %d duplicates %d quarantined 0 parse_rejected %d",
			ir, b.fresh, b.dups, b.invalid)
	}
	if ir.DriftRetrainTriggered {
		o.fail = "drift-triggered retrain"
	}
	return o, &ir
}

// lifecycleChecks reads /healthz and requires a clean lifecycle: no retrain
// error, and with drift on, no canary blocks, drift retrains or rollbacks.
func (r *run) lifecycleChecks() error {
	rep, err := get(context.Background(), r.hc, r.d.srv.base+"/healthz")
	if err != nil {
		return err
	}
	var h struct {
		Retrain map[string]any `json:"retrain"`
		Drift   *struct {
			DriftRetrains uint64 `json:"drift_retrains"`
			CanaryBlocked uint64 `json:"canary_blocked"`
			Rollbacks     uint64 `json:"rollbacks"`
		} `json:"drift"`
	}
	if err := json.Unmarshal(rep.body, &h); err != nil {
		return fmt.Errorf("decode /healthz: %w", err)
	}
	if e, ok := h.Retrain["last_error"]; ok {
		r.failf("retrain error: %v", e)
	}
	if h.Drift != nil && (h.Drift.DriftRetrains != 0 || h.Drift.CanaryBlocked != 0 || h.Drift.Rollbacks != 0) {
		r.failf("lifecycle: %d drift retrains, %d canary blocks, %d rollbacks; want 0, 0, 0",
			h.Drift.DriftRetrains, h.Drift.CanaryBlocked, h.Drift.Rollbacks)
	}
	if r.workload == "ingest-retrain" && h.Drift == nil {
		r.failf("/healthz has no drift section; the canary gate is off")
	}
	return nil
}

// runWorkload drives one workload against the deployment.
func (r *run) runWorkload() error {
	in, err := makeInputs(r.workload, r.seed, r.secs, r.d.corpus)
	if err != nil {
		return err
	}
	r.in, r.first = in, map[string][]byte{}
	share := func(f float64) time.Duration { return time.Duration(f * r.secs * float64(time.Second)) }
	for _, idx := range in.warmBatches {
		r.batch(idx)
	}
	switch r.workload {
	case "cold-distinct", "hot-repeat":
		singlesShare, batchShare, rate := coldSinglesShare, coldBatchShare, coldRate
		if r.workload == "hot-repeat" {
			singlesShare, batchShare, rate = hotSinglesShare, hotBatchShare, hotRate
			r.singles("warm", hotRate, time.Duration(hotWarmSeconds*float64(time.Second)), maxConns, in.warm, nil)
		} else {
			// Untimed: connections, the server's pools, on jobs no timed
			// request repeats.
			for _, j := range in.warm {
				r.diagnose(j)
			}
		}
		// Server CPU is sampled over the open loop only: its request count
		// is fixed by the rate, while the closed loop's is whatever the
		// server sustains (batch_jobs_per_s measures that).
		if err := r.cpuWindow(func() int {
			r.diag, r.diagOps = r.singles("diagnose", rate, share(singlesShare), maxConns, in.singles, nil)
			return len(r.diagOps)
		}); err != nil {
			return err
		}
		r.batchPhase(share(batchShare))
		return nil

	case "ingest-retrain":
		for _, j := range in.warm {
			r.diagnose(j)
		}
		var lerr error
		if err := r.cpuWindow(func() int {
			var lifeDone atomic.Bool
			deadline := time.Now().Add(share(lifecycleShare))
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The diagnosis stream runs for the whole phase, and longer
				// only if the K cycles have not finished by then.
				stop := func() bool { return lifeDone.Load() && time.Now().After(deadline) }
				r.diag, r.diagOps = r.singles("diagnose", lifecycleDiagRate, time.Hour, 1, in.singles, stop)
			}()
			lerr = r.lifecycle(lifecycleCycles)
			lifeDone.Store(true)
			wg.Wait()
			return len(r.diagOps) + len(r.ingestOps)
		}); err != nil {
			return err
		}
		if lerr != nil {
			return lerr
		}
		r.batchPhase(share(lifeBatchShare))
		return nil
	}
	return fmt.Errorf("unknown workload %q", r.workload)
}

// verify checks every kept diagnosis body against the in-process oracle.
// Bodies identical to the first one served for their (generation, job) were
// dropped on arrival; the first one stands for them.
func (r *run) verify() {
	var items []served
	for oi, o := range r.ops {
		if o.fail != "" || o.rep.body == nil || (o.kind != "diagnose" && o.kind != "batch") {
			continue
		}
		gen, err := strconv.ParseUint(o.rep.header.Get("X-AIIO-Generation"), 10, 64)
		if err != nil {
			o.fail = "no X-AIIO-Generation header"
			continue
		}
		if o.kind == "diagnose" {
			resp, err := decodeDiagnosis(o.rep.body)
			if err != nil {
				o.fail = err.Error()
				continue
			}
			items = append(items, served{gen: gen, rec: r.in.jobs[o.jobs[0]].rec, resp: resp, op: oi})
			continue
		}
		resps, err := decodeBatch(o.rep.body)
		if err != nil || len(resps) != len(o.jobs) {
			o.fail = fmt.Sprintf("batch answer: %d responses for %d jobs (%v)", len(resps), len(o.jobs), err)
			continue
		}
		for k, resp := range resps {
			items = append(items, served{gen: gen, rec: r.in.jobs[o.jobs[k]].rec, resp: resp, op: oi})
		}
	}
	bad, firstErr := newOracle(r.d.modelsDir).verify(items)
	for oi := range bad {
		if r.ops[oi].fail == "" {
			r.ops[oi].fail = "diagnosis differs from the in-process result"
		}
	}
	if firstErr != nil {
		r.failf("parity: %v", firstErr)
	}
}

// withoutAdvisories cuts a diagnosis body before its advisories member,
// the last one the server encodes. With the drift monitor on, advisories
// are provenance read at answer time (the error tracker's rolling RMSE
// moves with every ingested job), so a cached answer is compared byte for
// byte up to them; without drift the whole body must match.
func withoutAdvisories(body []byte) []byte {
	if i := bytes.Index(body, []byte(`,"advisories":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// firstDiff shows where two bodies first differ.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	clip := func(x []byte) []byte {
		if i+60 < len(x) {
			return x[lo : i+60]
		}
		return x[lo:]
	}
	return fmt.Sprintf("at byte %d: %q vs %q", i, clip(a), clip(b))
}

// cacheCounts tallies X-AIIO-Cache headers of the diagnosis answers. The
// headers, not /healthz, are the source: with coalescing on, the flush-time
// recheck in the coalescer counts every cold miss twice in the server's own
// counters, so /healthz would under-report the hit ratio.
func cacheCounts(ops []*op) (hits, misses int) {
	for _, o := range ops {
		if o.rep == nil {
			continue
		}
		h := o.rep.header.Get("X-AIIO-Cache")
		switch {
		case h == "hit":
			hits++
		case h == "miss":
			misses++
		case strings.HasPrefix(h, "hits="):
			var a, b int
			if _, err := fmt.Sscanf(h, "hits=%d misses=%d", &a, &b); err == nil {
				hits += a
				misses += b
			}
		}
	}
	return hits, misses
}
