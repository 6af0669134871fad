package shap

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// oracleExplain is the per-call sampled estimator the coalition plan
// replaced, kept as the parity oracle: it redraws the coalitions, builds
// the dense constrained design Z and solves the WLS system with
// linalg.WeightedRidge on every call. It assumes more active features than
// cfg.MaxExact (the sampled path) and an all-zero background.
func oracleExplain(f PredictFunc, x []float64, cfg Config) Explanation {
	bg := make([]float64, len(x))
	var active []int
	for j := range x {
		if x[j] != bg[j] {
			active = append(active, j)
		}
	}
	pair := linalg.NewMatrix(2, len(x))
	copy(pair.Row(1), x)
	pv := f(pair)
	out := Explanation{Phi: make([]float64, len(x)), Base: pv[0], FX: pv[1]}

	m := len(active)
	words := (m + 63) / 64
	budget := cfg.NSamples
	rng := rand.New(&splitmix64{s: uint64(cfg.Seed)})
	var masks []uint64
	var weights []float64
	nCoal := 0
	addCoalition := func(weight float64) []uint64 {
		for i := 0; i < words; i++ {
			masks = append(masks, 0)
		}
		weights = append(weights, weight)
		nCoal++
		return masks[len(masks)-words:]
	}
	maskOf := func(i int) []uint64 { return masks[i*words : (i+1)*words] }
	getBit := func(mask []uint64, b int) bool { return mask[b>>6]>>(b&63)&1 == 1 }
	lastWord := ^uint64(0)
	if m&63 != 0 {
		lastWord = 1<<(m&63) - 1
	}
	sizeWeight := func(s int) float64 {
		return float64(m-1) / (float64(s) * float64(m-s))
	}
	maxPair := m / 2
	remainingWeight := 0.0
	for s := 1; s <= maxPair; s++ {
		w := sizeWeight(s)
		if s != m-s {
			w *= 2
		}
		remainingWeight += w
	}
	used := 0
	lastComplete := 0
	for s := 1; s <= maxPair; s++ {
		total := binom(m, s)
		if s != m-s {
			total *= 2
		}
		if float64(budget-used) < total {
			break
		}
		w := sizeWeight(s)
		if s != m-s {
			w *= 2
		}
		per := w / total
		forEachSubset(m, s, func(idx []int) {
			mask := addCoalition(per)
			for _, i := range idx {
				mask[i>>6] |= 1 << (i & 63)
			}
			if s != m-s {
				comp := addCoalition(per)
				mask = maskOf(nCoal - 2)
				for wi := range comp {
					comp[wi] = ^mask[wi]
				}
				comp[words-1] &= lastWord
			}
		})
		used += int(total)
		remainingWeight -= w
		lastComplete = s
	}
	if remainingWeight > 1e-12 {
		var sizes []int
		var cumw []float64
		tot := 0.0
		for s := lastComplete + 1; s <= maxPair; s++ {
			w := sizeWeight(s)
			if s != m-s {
				w *= 2
			}
			tot += w
			sizes = append(sizes, s)
			cumw = append(cumw, tot)
		}
		nRand := budget - used
		if nRand > 0 && len(sizes) > 0 {
			per := remainingWeight / float64(nRand)
			perm := make([]int, m)
			for i := range perm {
				perm[i] = i
			}
			for k := 0; k < nRand; k++ {
				r := rng.Float64() * tot
				si := 0
				for si < len(cumw)-1 && r > cumw[si] {
					si++
				}
				s := sizes[si]
				kk := s
				if s != m-s && rng.Intn(2) == 1 {
					s = m - s
				}
				for i := 0; i < kk; i++ {
					j := i + rng.Intn(m-i)
					perm[i], perm[j] = perm[j], perm[i]
				}
				chosen := perm[:kk]
				if s != kk {
					chosen = perm[kk:]
				}
				mask := addCoalition(per)
				for _, i := range chosen {
					mask[i>>6] |= 1 << (i & 63)
				}
			}
		}
	}

	inputs := linalg.NewMatrix(nCoal, len(x))
	for i := 0; i < nCoal; i++ {
		row := inputs.Row(i)
		copy(row, bg)
		for wi, v := range maskOf(i) {
			for ; v != 0; v &= v - 1 {
				j := active[wi<<6+bits.TrailingZeros64(v)]
				row[j] = x[j]
			}
		}
	}
	vals := f(inputs)

	delta := out.FX - out.Base
	zCols := m - 1
	zm := linalg.NewMatrix(nCoal, zCols)
	yv := make([]float64, nCoal)
	for i := 0; i < nCoal; i++ {
		mask := maskOf(i)
		last := 0.0
		if getBit(mask, m-1) {
			last = 1
		}
		row := zm.Row(i)
		if last != 0 {
			for b := range row {
				row[b] = -1
			}
		}
		for wi, v := range mask {
			for ; v != 0; v &= v - 1 {
				if b := wi<<6 + bits.TrailingZeros64(v); b < zCols {
					row[b] = 1 - last
				}
			}
		}
		yv[i] = vals[i] - out.Base - last*delta
	}
	beta, err := linalg.WeightedRidge(zm, yv, weights, cfg.Ridge, false)
	if err != nil {
		for _, j := range active {
			out.Phi[j] = delta / float64(m)
		}
		return out
	}
	sum := 0.0
	for b := 0; b < zCols; b++ {
		out.Phi[active[b]] = beta[b]
		sum += beta[b]
	}
	out.Phi[active[m-1]] = delta - sum
	return out
}

// interactionF is a nonlinear model with pairwise interactions over every
// column, so each coalition row gets a distinct value.
func interactionF(dim int) PredictFunc {
	rng := rand.New(rand.NewSource(3))
	w := make([]float64, dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	return func(x *linalg.Matrix) []float64 {
		out := make([]float64, x.Rows)
		for i := range out {
			r := x.Row(i)
			s := 0.0
			for j, v := range r {
				s += w[j] * v
				if j+1 < len(r) {
					s += 0.3 * v * r[j+1]
				}
			}
			out[i] = math.Tanh(s) + 0.1*s
		}
		return out
	}
}

// sparseJob returns a dim-wide input with exactly m non-zero entries at
// pseudo-random positions.
func sparseJob(dim, m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, dim)
	for _, j := range rng.Perm(dim)[:m] {
		x[j] = 0.5 + rng.Float64()*2
	}
	return x
}

// assertSameExplanation requires bitwise equality of Phi, Base and FX.
func assertSameExplanation(t *testing.T, got, want Explanation, label string) {
	t.Helper()
	if got.Base != want.Base || got.FX != want.FX {
		t.Fatalf("%s: base/fx %v/%v, oracle %v/%v", label, got.Base, got.FX, want.Base, want.FX)
	}
	for j := range want.Phi {
		if got.Phi[j] != want.Phi[j] {
			t.Fatalf("%s: phi[%d] = %v, oracle %v", label, j, got.Phi[j], want.Phi[j])
		}
	}
}

// TestPlanMatchesPerCallOracle: explanations served from the cached
// coalition plan equal the per-call estimator bitwise, across AIIO's
// active-count range (single-word masks), multi-word masks (m > 64),
// budgets that enumerate and that sample, and two seeds. Zero features
// still get exactly zero and additivity holds.
func TestPlanMatchesPerCallOracle(t *testing.T) {
	type shape struct{ dim, m int }
	var shapes []shape
	step := 1
	if testing.Short() {
		step = 8
	}
	for m := 13; m <= 45; m += step {
		shapes = append(shapes, shape{45, m})
	}
	shapes = append(shapes, shape{90, 70}, shape{140, 130})
	for _, sh := range shapes {
		f := interactionF(sh.dim)
		for _, ns := range []int{64, 1024, 4096} {
			for _, seed := range []int64{1, 7} {
				cfg := DefaultConfig()
				cfg.NSamples, cfg.Seed = ns, seed
				x := sparseJob(sh.dim, sh.m, int64(sh.m)*31+seed)
				label := fmt.Sprintf("dim=%d m=%d nsamples=%d seed=%d", sh.dim, sh.m, ns, seed)
				got := New(f, nil, cfg).Explain(x)
				if got.Exact {
					t.Fatalf("%s: took the exact path", label)
				}
				assertSameExplanation(t, got, oracleExplain(f, x, cfg), label)
				for j, v := range x {
					if v == 0 && got.Phi[j] != 0 {
						t.Fatalf("%s: zero feature %d got phi %v", label, j, got.Phi[j])
					}
				}
				if e := got.AdditivityError(); e > 1e-9 {
					t.Fatalf("%s: additivity error %v", label, e)
				}
			}
		}
	}
}

// residentPlans reports the number of plans in the shared cache.
func residentPlans() int {
	plans.mu.Lock()
	defer plans.mu.Unlock()
	return len(plans.entries)
}

// resetPlans empties the shared plan cache.
func resetPlans() {
	plans.mu.Lock()
	defer plans.mu.Unlock()
	plans.entries = map[planKey]*planEntry{}
	plans.order = nil
}

// TestPlanCacheConcurrentFirstBuild: goroutines explaining different jobs
// with overlapping active counts race to build the first plans (run under
// -race in CI); every result equals the sequential one.
func TestPlanCacheConcurrentFirstBuild(t *testing.T) {
	const dim, goroutines = 45, 32
	f := interactionF(dim)
	cfg := DefaultConfig()
	cfg.NSamples = 1024
	jobs := make([][]float64, goroutines)
	want := make([]Explanation, goroutines)
	resetPlans()
	for g := range jobs {
		jobs[g] = sparseJob(dim, 20+g%4, int64(100+g)) // 4 active counts, 8 jobs each
		want[g] = New(f, nil, cfg).Explain(jobs[g])
	}

	resetPlans()
	got := make([]Explanation, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range jobs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = New(f, nil, cfg).Explain(jobs[g])
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range jobs {
		assertSameExplanation(t, got[g], want[g], fmt.Sprintf("goroutine %d", g))
	}
	if n := residentPlans(); n != 4 {
		t.Errorf("%d plans resident for 4 distinct keys", n)
	}
}

// TestPlanCacheBounded: more keys than the cap keep the resident count at
// or under it, and an evicted key rebuilds to the same result.
func TestPlanCacheBounded(t *testing.T) {
	const dim, m = 45, 16
	f := interactionF(dim)
	x := sparseJob(dim, m, 9)
	resetPlans()
	cfg := DefaultConfig()
	cfg.NSamples = 64
	first := New(f, nil, cfg).Explain(x)
	for k := 1; k <= planCacheCap+10; k++ {
		c := cfg
		c.NSamples = 64 + k
		New(f, nil, c).Explain(x)
		if n := residentPlans(); n > planCacheCap {
			t.Fatalf("%d plans resident after %d keys, cap %d", n, k+1, planCacheCap)
		}
	}
	plans.mu.Lock()
	_, kept := plans.entries[planKey{m: m, nSamples: 64, seed: cfg.Seed, ridge: math.Float64bits(cfg.Ridge)}]
	plans.mu.Unlock()
	if kept {
		t.Fatal("the oldest key survived past the cap")
	}
	again := New(f, nil, cfg).Explain(x)
	assertSameExplanation(t, again, first, "rebuilt plan")
	assertSameExplanation(t, again, oracleExplain(f, x, cfg), "rebuilt plan vs oracle")
}
