package gbdt

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// quadraticObliviousSplit is the per-candidate split scan obliviousSplit
// replaced, kept as the parity oracle: for every (slot, bin) it recomputes
// each leaf's prefix sums from bin 0, so a level costs O(leaves × bins²)
// per feature.
func quadraticObliviousSplit(tr *trainer, level []levelTask) (bestGain float64, bestSlot int, bestBin uint8) {
	bestSlot = -1
	for s := range tr.features {
		h0 := level[0].hist
		base := 2 * h0.base[s]
		for b := 0; b < h0.nBins[s]-1; b++ {
			total := 0.0
			ok := false
			for _, task := range level {
				data := task.hist.data
				gl, hl := 0.0, 0.0
				for bb := 0; bb <= b; bb++ {
					gl += data[base+2*bb]
					hl += data[base+2*bb+1]
				}
				gr := task.sumG - gl
				hr := task.sumH - hl
				if hl < tr.cfg.MinChildWeight || hr < tr.cfg.MinChildWeight {
					continue
				}
				gain := 0.5*(tr.score(gl, hl)+tr.score(gr, hr)-tr.score(task.sumG, task.sumH)) - tr.cfg.Gamma
				if gain > 0 {
					total += gain
					ok = true
				}
			}
			if ok && total > bestGain {
				bestGain = total
				bestSlot = s
				bestBin = uint8(b)
			}
		}
	}
	return bestGain, bestSlot, bestBin
}

// checkOracle asserts obliviousSplit picks the oracle's (slot, bin) with a
// bit-identical gain, and returns them.
func checkOracle(t *testing.T, what string, tr *trainer, level []levelTask) (int, uint8) {
	t.Helper()
	gain, slot, bin := tr.obliviousSplit(level)
	wGain, wSlot, wBin := quadraticObliviousSplit(tr, level)
	if slot != wSlot || bin != wBin || math.Float64bits(gain) != math.Float64bits(wGain) {
		t.Fatalf("%s: got (slot %d, bin %d, gain %v), oracle (slot %d, bin %d, gain %v)",
			what, slot, bin, gain, wSlot, wBin, wGain)
	}
	return slot, bin
}

// synthTrainer returns a trainer over one sampled feature per nBins entry
// and a level of leaves whose histograms fill(leaf, slot, bin) fills;
// each leaf's totals are the sums of its bins on the widest feature.
func synthTrainer(cfg Config, nBins []int, leaves int, fill func(leaf, slot, bin int) (g, h float64)) (*trainer, []levelTask) {
	tr := &trainer{cfg: cfg, nBins: nBins}
	widest := 0
	for f := range nBins {
		tr.features = append(tr.features, f)
		if nBins[f] > nBins[widest] {
			widest = f
		}
	}
	level := make([]levelTask, leaves)
	for li := range level {
		h := tr.newHistogram()
		for s := range tr.features {
			for b := 0; b < h.nBins[s]; b++ {
				g, hw := fill(li, s, b)
				h.data[2*(h.base[s]+b)] = g
				h.data[2*(h.base[s]+b)+1] = hw
			}
		}
		for b := 0; b < h.nBins[widest]; b++ {
			level[li].sumG += h.data[2*(h.base[widest]+b)]
			level[li].sumH += h.data[2*(h.base[widest]+b)+1]
		}
		level[li].hist = h
	}
	return tr, level
}

func TestObliviousSplitMatchesQuadraticOracle(t *testing.T) {
	t.Run("logdb fits", func(t *testing.T) {
		// Every level of one tree grown from the gradients of a partly
		// trained model: real per-leaf histograms from the root down to
		// 32-leaf levels, on the bagged rows and a sampled feature subset.
		fr := features.Build(logdb.Generate(logdb.GenConfig{Jobs: 600, Seed: 3}))
		for _, rounds := range []int{1, 25} {
			for _, colSample := range []float64{1, 0.5} {
				cfg := DefaultConfig(Oblivious)
				cfg.Rounds = rounds
				cfg.ColSample = colSample
				cfg.EarlyStoppingRounds = 0
				m, err := Train(cfg, fr.X, fr.Y, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				tr := newTrainer(cfg, m.Bins, fr.X, fr.Y)
				m.PredictBatchInto(fr.X, tr.pred)
				for i := range tr.grad {
					tr.grad[i] = tr.pred[i] - fr.Y[i]
					tr.hess[i] = 1
				}
				tr.sampleRows()
				tr.sampleFeatures(fr.X.Cols)
				g, h := tr.sums(0, len(tr.idx))
				level := []levelTask{{lo: 0, hi: len(tr.idx), sumG: g, sumH: h}}
				for depth := 0; depth < cfg.MaxDepth && len(level) > 0; depth++ {
					for i := range level {
						level[i].hist = tr.newHistogram()
						tr.buildHist(level[i].hist, level[i].lo, level[i].hi)
					}
					slot, bin := checkOracle(t, "logdb level", tr, level)
					if slot < 0 {
						break
					}
					var next []levelTask
					for _, task := range level {
						mid := tr.partition(task.lo, task.hi, tr.features[slot], bin)
						gl, hl := tr.sums(task.lo, mid)
						if mid > task.lo {
							next = append(next, levelTask{lo: task.lo, hi: mid, sumG: gl, sumH: hl})
						}
						if mid < task.hi {
							next = append(next, levelTask{lo: mid, hi: task.hi, sumG: task.sumG - gl, sumH: task.sumH - hl})
						}
					}
					level = next
				}
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 300; trial++ {
			nBins := make([]int, 1+rng.Intn(12))
			for s := range nBins {
				nBins[s] = 1 + rng.Intn(MaxBins)
			}
			empty := []float64{0, 0.5, 0.95}[trial%3]
			cfg := DefaultConfig(Oblivious)
			cfg.MinChildWeight = []float64{0, 1, 4}[rng.Intn(3)]
			cfg.Gamma = []float64{-0.5, 0, 0.5}[rng.Intn(3)]
			tr, level := synthTrainer(cfg, nBins, 1+rng.Intn(32), func(_, _, _ int) (float64, float64) {
				if rng.Float64() < empty {
					if rng.Intn(4) == 0 {
						return math.Copysign(0, -1), 0
					}
					return 0, 0
				}
				return rng.NormFloat64() * 10, float64(1 + rng.Intn(5))
			})
			checkOracle(t, "random", tr, level)
		}
	})

	t.Run("all bins empty", func(t *testing.T) {
		empty := func(_, _, _ int) (float64, float64) { return 0, 0 }
		tr, level := synthTrainer(DefaultConfig(Oblivious), []int{8, 256, 3}, 4, empty)
		if slot, _ := checkOracle(t, "all empty", tr, level); slot != -1 {
			t.Fatalf("all-empty histograms split on slot %d", slot)
		}
		// A negative Gamma with no MinChildWeight gives an empty prefix a
		// positive gain, so even the leading empty bins are candidates.
		cfg := DefaultConfig(Oblivious)
		cfg.MinChildWeight, cfg.Gamma = 0, -0.5
		tr, level = synthTrainer(cfg, []int{8, 256, 3}, 4, empty)
		checkOracle(t, "all empty, negative Gamma", tr, level)
	})

	t.Run("ties", func(t *testing.T) {
		// Features 1 and 2 copy feature 0, so every gain ties across
		// features; bins 1..5 are empty, so splits at bins 0..5 all send
		// the same rows left and tie within a feature. The first candidate
		// in (slot, bin) order must win.
		cells := []float64{-5, 0, 0, 0, 0, 0, 5, 0}
		tr, level := synthTrainer(DefaultConfig(Oblivious), []int{8, 8, 8}, 2, func(leaf, _, b int) (float64, float64) {
			if cells[b] == 0 {
				return 0, 0
			}
			return cells[b] * float64(leaf+1), 1
		})
		if slot, bin := checkOracle(t, "ties", tr, level); slot != 0 || bin != 0 {
			t.Fatalf("ties went to (slot %d, bin %d), want (0, 0)", slot, bin)
		}
	})

	t.Run("MinChildWeight boundary", func(t *testing.T) {
		// Unit hessians: a split at bin b has hl = b+1 exactly, so each
		// MinChildWeight below lands on a candidate's hl or hr.
		for _, mcw := range []float64{0, 1, 2, 3, 3.5, 4, 5, 6, 7} {
			cfg := DefaultConfig(Oblivious)
			cfg.MinChildWeight = mcw
			tr, level := synthTrainer(cfg, []int{6, 6}, 3, func(leaf, s, b int) (float64, float64) {
				return float64((b*7+s*3+leaf*5)%11) - 5, 1
			})
			slot, _ := checkOracle(t, "MinChildWeight", tr, level)
			if mcw > 3 && slot != -1 {
				t.Fatalf("MinChildWeight %v: split with a child hessian below it (slot %d)", mcw, slot)
			}
		}
	})

	t.Run("Gamma without positive gain", func(t *testing.T) {
		cfg := DefaultConfig(Oblivious)
		cfg.Gamma = 1e9
		tr, level := synthTrainer(cfg, []int{16, 40}, 5, func(leaf, s, b int) (float64, float64) {
			return float64(b-8) * float64(leaf+s+1), 1
		})
		if slot, _ := checkOracle(t, "Gamma", tr, level); slot != -1 {
			t.Fatalf("Gamma 1e9 still split on slot %d", slot)
		}
	})

	t.Run("single-bin features", func(t *testing.T) {
		fill := func(_, _, b int) (float64, float64) { return float64(b*b) - 3, 1 }
		tr, level := synthTrainer(DefaultConfig(Oblivious), []int{1, 1, 1}, 3, fill)
		if slot, _ := checkOracle(t, "single-bin only", tr, level); slot != -1 {
			t.Fatalf("single-bin features split on slot %d", slot)
		}
		tr, level = synthTrainer(DefaultConfig(Oblivious), []int{1, 5, 1}, 3, fill)
		if slot, _ := checkOracle(t, "single-bin mixed", tr, level); slot != 1 {
			t.Fatalf("split on slot %d, want the one multi-bin feature 1", slot)
		}
	})
}

// TestObliviousFitSymmetricAndDeterministic fits cold and warm-continued
// oblivious models with feature and row sampling: every tree must stay
// symmetric, and two identical fits must encode to the same bytes.
func TestObliviousFitSymmetricAndDeterministic(t *testing.T) {
	fr := features.Build(logdb.Generate(logdb.GenConfig{Jobs: 500, Seed: 5}))
	tr, ev := fr.Split(1, 0.7)
	cfg := DefaultConfig(Oblivious)
	cfg.Rounds = 20
	cfg.ColSample = 0.6
	cfg.Subsample = 0.8
	cfg.EarlyStoppingRounds = 0
	fit := func() (cold, warm []byte) {
		m, err := Train(cfg, tr.X, tr.Y, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wcfg := cfg
		wcfg.Rounds = 8
		wm, err := TrainWarm(wcfg, ev.X, ev.Y, nil, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(wm.Trees) != len(m.Trees)+wcfg.Rounds {
			t.Fatalf("warm fit has %d trees, want %d", len(wm.Trees), len(m.Trees)+wcfg.Rounds)
		}
		for i, tree := range wm.Trees {
			if !tree.IsOblivious() {
				t.Fatalf("tree %d is not oblivious", i)
			}
		}
		var cb, wb bytes.Buffer
		if err := m.Save(&cb); err != nil {
			t.Fatal(err)
		}
		if err := wm.Save(&wb); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), wb.Bytes()
	}
	c1, w1 := fit()
	c2, w2 := fit()
	if !bytes.Equal(c1, c2) {
		t.Error("two identical cold fits encode differently")
	}
	if !bytes.Equal(w1, w2) {
		t.Error("two identical warm fits encode differently")
	}
}
