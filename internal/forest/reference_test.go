package forest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The reference forest: the original pointer-tree implementation, kept
// verbatim apart from names and lint directives as the oracle the flat
// forest must match bit for bit (TestMatchesReference,
// FuzzMatchesReference). It allocates freely and rescans the node for
// every candidate threshold; do not optimise it.

func refDefaults(c Config, d int) Config {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.FeatureFrac <= 0 || c.FeatureFrac > 1 {
		c.FeatureFrac = math.Sqrt(float64(d)) / float64(d)
	}
	return c
}

type refNode struct {
	feature int // -1 for leaf
	thresh  float64
	left    *refNode
	right   *refNode
	class   int // majority class at leaf
}

type refForest struct {
	trees      []*refNode
	classes    int
	features   int
	importance []float64
}

func refTrain(X [][]float64, y []int, cfg Config) *refForest {
	n := len(X)
	if n == 0 || n != len(y) {
		panic(fmt.Sprintf("forest: %d samples vs %d labels", n, len(y)))
	}
	d := len(X[0])
	classes := 0
	for i, label := range y {
		if len(X[i]) != d {
			panic(fmt.Sprintf("forest: row %d has %d features, want %d", i, len(X[i]), d))
		}
		if label < 0 {
			panic(fmt.Sprintf("forest: negative label %d", label))
		}
		if label+1 > classes {
			classes = label + 1
		}
	}
	cfg = refDefaults(cfg, d)
	rng := rand.New(rand.NewSource(cfg.Seed))

	f := &refForest{classes: classes, features: d, importance: make([]float64, d)}
	mtry := int(math.Ceil(cfg.FeatureFrac * float64(d)))
	if mtry < 1 {
		mtry = 1
	}
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tr := &refTrainer{
			X: X, y: y, classes: classes, cfg: cfg, rng: rng,
			mtry: mtry, importance: f.importance,
		}
		f.trees = append(f.trees, tr.build(idx, 0))
	}
	// Normalize importance to sum to 1 (when any split happened).
	var total float64
	for _, v := range f.importance {
		total += v
	}
	if total > 0 {
		for i := range f.importance {
			f.importance[i] /= total
		}
	}
	return f
}

type refTrainer struct {
	X          [][]float64
	y          []int
	classes    int
	cfg        Config
	rng        *rand.Rand
	mtry       int
	importance []float64
}

func (t *refTrainer) build(idx []int, depth int) *refNode {
	counts := make([]int, t.classes)
	for _, i := range idx {
		counts[t.y[i]]++
	}
	majority, best := 0, -1
	pure := true
	for c, k := range counts {
		if k > best {
			best, majority = k, c
		}
		if k != 0 && k != len(idx) {
			pure = false
		}
	}
	if pure || depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinLeaf {
		return &refNode{feature: -1, class: majority}
	}

	parentGini := refGini(counts, len(idx))
	bestFeature, bestThresh := -1, 0.0
	bestGain := 0.0
	var bestLeft, bestRight []int

	// Random feature subset.
	feats := t.rng.Perm(len(t.X[0]))[:t.mtry]
	for _, feat := range feats {
		vals := make([]float64, len(idx))
		for i, r := range idx {
			vals[i] = t.X[r][feat]
		}
		sort.Float64s(vals)
		// Candidate thresholds: midpoints of distinct adjacent values
		// (subsampled for speed on large nodes).
		stride := 1
		if len(vals) > 64 {
			stride = len(vals) / 64
		}
		for i := stride; i < len(vals); i += stride {
			if vals[i] == vals[i-1] {
				continue
			}
			thresh := (vals[i] + vals[i-1]) / 2
			lc := make([]int, t.classes)
			rc := make([]int, t.classes)
			ln := 0
			for _, r := range idx {
				if t.X[r][feat] <= thresh {
					lc[t.y[r]]++
					ln++
				} else {
					rc[t.y[r]]++
				}
			}
			rn := len(idx) - ln
			if ln < t.cfg.MinLeaf || rn < t.cfg.MinLeaf {
				continue
			}
			g := parentGini -
				(float64(ln)*refGini(lc, ln)+float64(rn)*refGini(rc, rn))/float64(len(idx))
			if g > bestGain {
				bestGain, bestFeature, bestThresh = g, feat, thresh
			}
		}
	}
	if bestFeature < 0 {
		return &refNode{feature: -1, class: majority}
	}
	for _, r := range idx {
		if t.X[r][bestFeature] <= bestThresh {
			bestLeft = append(bestLeft, r)
		} else {
			bestRight = append(bestRight, r)
		}
	}
	t.importance[bestFeature] += bestGain * float64(len(idx))
	return &refNode{
		feature: bestFeature,
		thresh:  bestThresh,
		left:    t.build(bestLeft, depth+1),
		right:   t.build(bestRight, depth+1),
	}
}

func refGini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, k := range counts {
		p := float64(k) / float64(n)
		g -= p * p
	}
	return g
}

func (f *refForest) Predict(x []float64) int {
	if len(x) != f.features {
		panic(fmt.Sprintf("forest: Predict with %d features, model has %d", len(x), f.features))
	}
	votes := make([]int, f.classes)
	for _, t := range f.trees {
		votes[refClassify(t, x)]++
	}
	best, cls := -1, 0
	for c, v := range votes {
		if v > best {
			best, cls = v, c
		}
	}
	return cls
}

func refClassify(n *refNode, x []float64) int {
	for n.feature >= 0 {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

func (f *refForest) Importance() []float64 {
	return append([]float64(nil), f.importance...)
}
