// Package shap implements Kernel SHAP (Lundberg & Lee, NeurIPS 2017) — the
// AI-interpretation method AIIO uses as its diagnosis function (Section 3.3,
// Eq. 4). Given a performance function f and a job's counter vector x, the
// explainer allocates f(x) − f(background) across the counters as Shapley
// values C_j: negative C_j marks a counter as an I/O bottleneck.
//
// Two estimators are provided behind one API:
//
//   - exact enumeration of all coalitions when the number of active
//     features is small (≤ MaxExact), which yields exact Shapley values;
//   - the Kernel SHAP weighted-least-squares estimator with paired
//     coalition sampling otherwise, solved with the efficiency constraint
//     (Σ C_j = f(x) − f(background)) eliminated analytically.
//
// The paper's sparsity rule is enforced structurally: features equal to the
// background (zero, for AIIO's zero background filter) are never perturbed
// and receive exactly zero contribution, which is the robustness property
// Section 3.3 contrasts with Gauge.
package shap

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// PredictFunc evaluates the model on a batch of rows (one prediction per
// row). Batch evaluation lets tree ensembles and networks amortize work and
// parallelize internally.
type PredictFunc func(x *linalg.Matrix) []float64

// Config tunes the explainer.
type Config struct {
	// MaxExact is the largest active-feature count for which all 2^M
	// coalitions are enumerated (exact Shapley values). Above it the
	// sampling estimator runs.
	MaxExact int
	// NSamples is the coalition budget for the sampling estimator.
	NSamples int
	// Ridge is the regularization of the WLS solve.
	Ridge float64
	Seed  int64
}

// DefaultConfig matches the shap package's auto settings at AIIO's scale.
func DefaultConfig() Config {
	return Config{
		MaxExact: 12,
		NSamples: 4096,
		Ridge:    1e-9,
		Seed:     1,
	}
}

// Explanation is the diagnosis of one job under one performance function.
type Explanation struct {
	// Phi are the per-feature contributions C_j; exactly zero for features
	// equal to the background.
	Phi []float64
	// Base is E[f] — here f(background), the expected performance with no
	// counters active.
	Base float64
	// FX is f(x).
	FX float64
	// Exact records whether the exact enumerator ran.
	Exact bool
}

// AdditivityError returns |Base + Σ Phi − FX|, the local-accuracy residual
// (zero up to float rounding for both estimators by construction).
func (e *Explanation) AdditivityError() float64 {
	s := e.Base
	for _, p := range e.Phi {
		s += p
	}
	return math.Abs(s - e.FX)
}

// Explainer computes SHAP values against a fixed background. The
// coalition input matrix and the WLS right-hand side live in a pool-shared
// scratch area borrowed per call, and the sampled estimator's coalitions
// and factored normal matrix in a shared plan (plan.go), so the
// steady-state allocations of an Explain are the returned Phi slice, the
// solve's output and the model's own output batches. A mutex serializes
// concurrent Explain calls on one explainer; independent explainers (as
// core.Diagnose builds per model per job) never contend.
type Explainer struct {
	f          PredictFunc
	background []float64
	cfg        Config

	mu sync.Mutex
	sc *scratch // borrowed from scratchPool for the duration of one Explain
}

// scratchPool shares scratch slabs across all explainers. core.Diagnose
// builds a fresh explainer per (job, model) pair, and without sharing
// every diagnosis re-allocates — and the runtime re-zeroes — hundreds of
// kilobytes of coalition input matrices; borrowing per call keeps those
// slabs warm across jobs while staying safe for concurrent explainers.
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// scratch is the per-explainer reusable buffer set.
type scratch struct {
	active []int
	pair   []float64 // 2-row matrix backing for evalPair
	inputs []float64 // coalition input matrix backing
	rhs    []float64 // WLS right-hand side ZᵀW·y
	sizeW  []float64 // per-coalition-size Shapley weights
}

// growF returns buf resized to n floats, reusing its capacity; contents are
// unspecified (every caller fully overwrites).
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// New creates an explainer. AIIO initializes the background filter to zero
// (Section 3.3); pass nil for an all-zero background of the given size at
// first Explain call.
func New(f PredictFunc, background []float64, cfg Config) *Explainer {
	if cfg.MaxExact <= 0 {
		cfg.MaxExact = DefaultConfig().MaxExact
	}
	if cfg.NSamples <= 0 {
		cfg.NSamples = DefaultConfig().NSamples
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = DefaultConfig().Ridge
	}
	return &Explainer{f: f, background: background, cfg: cfg}
}

// Explain computes the SHAP values of x.
func (e *Explainer) Explain(x []float64) Explanation {
	out, _ := e.ExplainContext(context.Background(), x)
	return out
}

// ExplainContext computes the SHAP values of x with cooperative
// cancellation: the model is evaluated in row chunks and ctx is checked
// between chunks, so a slow performance function cannot pin a worker past
// its deadline. On cancellation the partial explanation is discarded and
// ctx's error is returned. Chunked evaluation is bitwise-identical to a
// single batch call because every AIIO model predicts rows independently.
func (e *Explainer) ExplainContext(ctx context.Context, x []float64) (Explanation, error) {
	bg := e.background
	if bg == nil {
		bg = make([]float64, len(x))
	}
	if len(bg) != len(x) {
		panic(fmt.Sprintf("shap: background dim %d vs input dim %d", len(bg), len(x)))
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.sc = scratchPool.Get().(*scratch)
	defer func() {
		scratchPool.Put(e.sc)
		e.sc = nil
	}()

	// Active set: features differing from the background.
	active := e.sc.active[:0]
	for j := range x {
		if x[j] != bg[j] {
			active = append(active, j)
		}
	}
	e.sc.active = active

	out := Explanation{Phi: make([]float64, len(x))}
	base, fx, err := e.evalPair(ctx, bg, x)
	if err != nil {
		return Explanation{}, err
	}
	out.Base = base
	out.FX = fx

	switch {
	case len(active) == 0:
		return out, nil
	case len(active) == 1:
		out.Phi[active[0]] = fx - base
		out.Exact = true
		return out, nil
	case len(active) <= e.cfg.MaxExact:
		if err := e.exact(ctx, x, bg, active, &out); err != nil {
			return Explanation{}, err
		}
		return out, nil
	default:
		if err := e.sampled(ctx, x, bg, active, &out); err != nil {
			return Explanation{}, err
		}
		return out, nil
	}
}

// evalPair evaluates f on the background and the full input in one batch.
func (e *Explainer) evalPair(ctx context.Context, bg, x []float64) (base, fx float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	e.sc.pair = growF(e.sc.pair, 2*len(x))
	m := &linalg.Matrix{Rows: 2, Cols: len(x), Data: e.sc.pair}
	copy(m.Row(0), bg)
	copy(m.Row(1), x)
	p := e.f(m)
	return p[0], p[1], nil
}

// evalChunkRows is the row-chunk size of cancellable model evaluation; ctx
// is consulted between chunks.
const evalChunkRows = 512

// EvalChunked evaluates f on every row of inputs. When ctx can be cancelled
// the evaluation proceeds in chunks of evalChunkRows with a ctx check
// between chunks; a background context takes the single-call fast path.
// Both paths return identical values (row-independent models). The lime
// package shares this helper for its perturbation batches.
func EvalChunked(ctx context.Context, f PredictFunc, inputs *linalg.Matrix) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil || inputs.Rows <= evalChunkRows {
		return f(inputs), nil
	}
	out := make([]float64, inputs.Rows)
	for lo := 0; lo < inputs.Rows; lo += evalChunkRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + evalChunkRows
		if hi > inputs.Rows {
			hi = inputs.Rows
		}
		sub := &linalg.Matrix{Rows: hi - lo, Cols: inputs.Cols, Data: inputs.Data[lo*inputs.Cols : hi*inputs.Cols]}
		copy(out[lo:hi], f(sub))
	}
	return out, nil
}

// exact enumerates all 2^M coalitions of the active features and computes
// exact Shapley values from the marginal contributions.
func (e *Explainer) exact(ctx context.Context, x, bg []float64, active []int, out *Explanation) error {
	m := len(active)
	n := 1 << m

	// Evaluate f on every coalition input (matrix backing reused).
	e.sc.inputs = growF(e.sc.inputs, n*len(x))
	inputs := &linalg.Matrix{Rows: n, Cols: len(x), Data: e.sc.inputs}
	for mask := 0; mask < n; mask++ {
		row := inputs.Row(mask)
		copy(row, bg)
		for v := uint64(mask); v != 0; v &= v - 1 {
			j := active[bits.TrailingZeros64(v)]
			row[j] = x[j]
		}
	}
	vals, err := EvalChunked(ctx, e.f, inputs)
	if err != nil {
		return err
	}

	// Precompute |S|!(M-|S|-1)!/M! per coalition size.
	weight := growF(e.sc.sizeW, m)
	e.sc.sizeW = weight
	for s := 0; s < m; s++ {
		weight[s] = 1 / (float64(m) * binom(m-1, s))
	}

	for b := 0; b < m; b++ {
		bit := 1 << b
		phi := 0.0
		for mask := 0; mask < n; mask++ {
			if mask&bit != 0 {
				continue
			}
			s := bits.OnesCount64(uint64(mask))
			phi += weight[s] * (vals[mask|bit] - vals[mask])
		}
		out.Phi[active[b]] = phi
	}
	out.Exact = true
	return nil
}

// binom returns C(n, k) as float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// splitmix64 is Vigna's SplitMix64 generator. It exists because seeding
// math/rand's default lagged-Fibonacci source walks a 607-word warm-up
// (milliseconds across a diagnosis batch that builds one explainer per
// job/model pair), while SplitMix64 seeds in O(1) with a single add. It
// implements rand.Source64, so rand.Rand draws whole words from it.
type splitmix64 struct{ s uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { s.s = uint64(seed) }

// sampled runs the Kernel SHAP WLS estimator with paired coalition
// enumeration/sampling, following the shap package's KernelExplainer. The
// coalitions, their kernel weights and the factored normal matrix come from
// the shared plan for (M, NSamples, Seed, Ridge) (see plan.go), so the
// per-job work is the coalition input matrix, one model call, ZᵀW·y and two
// triangular solves. ZᵀW·y is accumulated coalition by coalition in
// ascending order with the same products linalg.WeightedRidge forms, so the
// result is bitwise identical to solving the materialised system per call.
func (e *Explainer) sampled(ctx context.Context, x, bg []float64, active []int, out *Explanation) error {
	m := len(active)
	p := plans.get(planKey{m: m, nSamples: e.cfg.NSamples, seed: e.cfg.Seed, ridge: math.Float64bits(e.cfg.Ridge)})

	// Evaluate f on every coalition (matrix backing reused).
	sc := e.sc
	sc.inputs = growF(sc.inputs, p.nCoal*len(x))
	inputs := &linalg.Matrix{Rows: p.nCoal, Cols: len(x), Data: sc.inputs}
	for i := 0; i < p.nCoal; i++ {
		row := inputs.Row(i)
		copy(row, bg)
		for wi, v := range p.mask(i) {
			for ; v != 0; v &= v - 1 {
				j := active[wi<<6+bits.TrailingZeros64(v)]
				row[j] = x[j]
			}
		}
	}
	vals, err := EvalChunked(ctx, e.f, inputs)
	if err != nil {
		return err
	}

	delta := out.FX - out.Base
	if p.chol == nil {
		// Degenerate sampling: fall back to spreading delta uniformly.
		for _, j := range active {
			out.Phi[j] = delta / float64(m)
		}
		return nil
	}
	// Constrained WLS right-hand side ZᵀW·y with y = f(S) - base - [last∈S]·delta.
	// A coalition without the eliminated last feature has Z entries 1 on
	// its bits; one with it has -1 off its bits (and 0 on them).
	zCols := m - 1
	rhs := growF(sc.rhs, zCols)
	sc.rhs = rhs
	for b := range rhs {
		rhs[b] = 0
	}
	lastWi, lastBit := (m-1)>>6, uint((m-1)&63)
	for i := 0; i < p.nCoal; i++ {
		wi := p.weights[i]
		if wi == 0 {
			continue
		}
		mask := p.mask(i)
		last := float64(mask[lastWi] >> lastBit & 1)
		y := vals[i] - out.Base - last*delta
		t := float64(wi * y)
		if last == 0 {
			for w, v := range mask {
				for ; v != 0; v &= v - 1 {
					if b := w<<6 + bits.TrailingZeros64(v); b < zCols {
						rhs[b] += t
					}
				}
			}
			continue
		}
		for w, v := range mask {
			for v = ^v; v != 0; v &= v - 1 {
				b := w<<6 + bits.TrailingZeros64(v)
				if b >= zCols {
					break
				}
				rhs[b] -= t
			}
		}
	}
	beta := linalg.CholeskySolve(p.chol, rhs)
	sum := 0.0
	for b := 0; b < zCols; b++ {
		out.Phi[active[b]] = beta[b]
		sum += beta[b]
	}
	out.Phi[active[m-1]] = delta - sum
	return nil
}

// forEachSubset enumerates all k-subsets of {0..n-1} in lexicographic order.
func forEachSubset(n, k int, fn func(idx []int)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
