package shap

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// The sampled estimator's coalition set, its kernel weights and the WLS
// normal matrix depend only on the active-feature count and the config —
// never on the job, the background or the model — because the coalition
// RNG is seeded from Config.Seed alone. A plan holds that job-independent
// half of the estimator, built once per key and shared by every
// explanation: what remains per job is filling the coalition rows, one
// PredictFunc call, ZᵀW·y and two triangular solves.

// planCacheCap bounds the number of plans kept. A plan at NSamples 4096
// and 45 active features is about 80 KB (masks, weights, Cholesky factor).
// AIIO's 45-counter schema yields at most 33 sampled keys per config (13–45
// active counters above the default MaxExact), so the cap holds every key
// of a serving config with room for a second config.
const planCacheCap = 64

// planKey identifies a plan. The ridge is keyed by its bits so that every
// key, NaN included, compares equal to itself and can be evicted.
type planKey struct {
	m, nSamples int
	seed        int64
	ridge       uint64
}

// plan is the job-independent half of one sampled explanation.
type plan struct {
	m     int // active features
	words int // uint64 words per coalition mask: ceil(m/64)
	nCoal int
	// masks holds the coalition bitsets over active-feature positions:
	// coalition i occupies words [i*words, (i+1)*words).
	masks   []uint64
	weights []float64
	// chol is the Cholesky factor of ZᵀWZ + λI for the constrained design
	// Z (the last active feature eliminated by the efficiency constraint),
	// with linalg.FactorSPD's jitter applied; nil when the system is
	// singular, which selects the uniform fallback.
	chol *linalg.Matrix
}

func (p *plan) mask(i int) []uint64 { return p.masks[i*p.words : (i+1)*p.words] }

// planCache is a bounded, concurrency-safe plan store. Each key is built
// exactly once per residency (racing first callers wait on one build);
// past the cap the oldest key is evicted. Eviction only drops the cache's
// reference, so an explanation holding an evicted plan finishes with it.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*planEntry
	order   []planKey // insertion order, oldest first
}

type planEntry struct {
	once sync.Once
	p    *plan
}

var plans = &planCache{entries: map[planKey]*planEntry{}}

// get returns the plan for k, building it on first use.
func (c *planCache) get(k planKey) *plan {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		if len(c.order) >= planCacheCap {
			delete(c.entries, c.order[0])
			c.order = append(c.order[:0], c.order[1:]...)
		}
		e = &planEntry{}
		c.entries[k] = e
		c.order = append(c.order, k)
	}
	c.mu.Unlock()
	e.once.Do(func() { e.p = buildPlan(k) })
	return e.p
}

// buildPlan draws the coalitions for k (paired enumeration of the complete
// size levels, then kernel-weighted sampling of the rest, following the
// shap package's KernelExplainer) and factors their WLS normal matrix.
func buildPlan(k planKey) *plan {
	m := k.m
	words := (m + 63) / 64
	budget := k.nSamples
	rng := rand.New(&splitmix64{s: uint64(k.seed)})

	// Sized for the full budget, which a key that samples fills exactly.
	p := &plan{m: m, words: words, masks: make([]uint64, 0, budget*words), weights: make([]float64, 0, budget)}
	// addCoalition appends one zeroed bitset + weight and returns the mask
	// words for the caller to fill.
	addCoalition := func(weight float64) []uint64 {
		for i := 0; i < words; i++ {
			p.masks = append(p.masks, 0)
		}
		p.weights = append(p.weights, weight)
		p.nCoal++
		return p.masks[len(p.masks)-words:]
	}
	lastWord := ^uint64(0) // valid-bit mask of the slab's final word
	if m&63 != 0 {
		lastWord = 1<<(m&63) - 1
	}

	// Shapley kernel weight per size, paired (s and m-s together).
	sizeWeight := func(s int) float64 {
		return float64(m-1) / (float64(s) * float64(m-s))
	}
	maxPair := m / 2 // pairs (1, m-1), (2, m-2), ...

	remainingWeight := 0.0
	for s := 1; s <= maxPair; s++ {
		w := sizeWeight(s)
		if s != m-s {
			w *= 2
		}
		remainingWeight += w
	}

	used := 0
	lastComplete := 0 // sizes 1..lastComplete fully enumerated
	for s := 1; s <= maxPair; s++ {
		cnt := binom(m, s)
		total := cnt
		if s != m-s {
			total *= 2
		}
		if float64(budget-used) < total {
			break
		}
		// Enumerate all subsets of size s (and complements): each subset of
		// a complete size level shares the level's kernel weight equally.
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
				mask = p.mask(p.nCoal - 2) // addCoalition may have regrown the slab
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

	// Random sampling for the remaining budget across incomplete sizes.
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
			per := remainingWeight / float64(nRand) // equal weight per sample
			perm := make([]int, m)
			for i := range perm {
				perm[i] = i
			}
			for n := 0; n < nRand; n++ {
				r := rng.Float64() * tot
				si := 0
				for si < len(cumw)-1 && r > cumw[si] {
					si++
				}
				s := sizes[si]
				kk := s // sizes only go up to m/2, so kk is the smaller of the pair
				if s != m-s && rng.Intn(2) == 1 {
					s = m - s
				}
				// Partial Fisher–Yates: only the first kk slots need to be
				// drawn for a uniform kk-subset, and the unchosen suffix is
				// then itself a uniform (m-kk)-subset for the complement
				// size — far cheaper than shuffling all m entries.
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

	// Constrained WLS design: the last active feature is eliminated with
	// the efficiency constraint Σ phi = fx - base, so a coalition holding it
	// contributes row -1 off the coalition and 0 on it, any other coalition
	// its 0/1 indicator.
	zCols := m - 1
	z := linalg.NewMatrix(p.nCoal, zCols)
	for i := 0; i < p.nCoal; i++ {
		mask := p.mask(i)
		row := z.Row(i)
		on := 1.0
		if mask[(m-1)>>6]>>((m-1)&63)&1 == 1 {
			on = 0
			for b := range row {
				row[b] = -1
			}
		}
		for wi, v := range mask {
			for ; v != 0; v &= v - 1 {
				if b := wi<<6 + bits.TrailingZeros64(v); b < zCols {
					row[b] = on
				}
			}
		}
	}
	gram := linalg.WeightedGram(z, p.weights, math.Float64frombits(k.ridge), false)
	if l, err := linalg.FactorSPD(gram); err == nil {
		p.chol = l
	}
	return p
}
