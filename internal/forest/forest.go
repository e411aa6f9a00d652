package forest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Config controls forest training.
type Config struct {
	Trees       int     // number of trees (default 50)
	MaxDepth    int     // per-tree depth cap (default 12)
	MinLeaf     int     // minimum samples per leaf (default 2)
	FeatureFrac float64 // fraction of features tried per split (default sqrt(d)/d)
	Seed        int64
}

func (c Config) withDefaults(d int) Config {
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

// node is one tree node. Trees are stored depth first, so a split's left
// child is the node right after it and its right child is nodes[right].
// A leaf has feature < 0 and predicts class.
type node struct {
	thresh  float64
	feature int32
	right   int32
	class   int32
}

// Forest is a trained random-forest classifier: the nodes of every tree
// in one flat array, tree t rooted at nodes[roots[t]].
type Forest struct {
	nodes      []node
	roots      []int32
	classes    int
	features   int
	importance []float64
}

// Train fits a random forest on X (row-major) with integer class labels
// 0..k-1. It panics on malformed input: training data is produced by
// experiment code, not end users.
func Train(X [][]float64, y []int, cfg Config) *Forest {
	n := len(X)
	if n == 0 || n != len(y) {
		//radlint:allow nopanic malformed training data is a programming error; the doc contract says panic
		panic(fmt.Sprintf("forest: %d samples vs %d labels", n, len(y)))
	}
	d := len(X[0])
	classes := 0
	for i, label := range y {
		if len(X[i]) != d {
			//radlint:allow nopanic malformed training data is a programming error; the doc contract says panic
			panic(fmt.Sprintf("forest: row %d has %d features, want %d", i, len(X[i]), d))
		}
		if label < 0 {
			//radlint:allow nopanic malformed training data is a programming error; the doc contract says panic
			panic(fmt.Sprintf("forest: negative label %d", label))
		}
		if label+1 > classes {
			classes = label + 1
		}
	}
	cfg = cfg.withDefaults(d)
	mtry := int(math.Ceil(cfg.FeatureFrac * float64(d)))
	if mtry < 1 {
		mtry = 1
	}
	t := &trainer{
		X: X, y: y, cfg: cfg, mtry: mtry,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		importance: make([]float64, d),
		counts:     make([]int, classes),
		lc:         make([]int, classes),
		rc:         make([]int, classes),
		feats:      make([]int, d),
		right:      make([]int, n),
		pairs:      make([]pair, n),
	}
	f := &Forest{roots: make([]int32, cfg.Trees), classes: classes, features: d, importance: t.importance}
	idx := make([]int, n)
	for tree := range f.roots {
		// Bootstrap sample.
		for i := range idx {
			idx[i] = t.rng.Intn(n)
		}
		f.roots[tree] = int32(len(t.nodes))
		t.build(idx, 0)
		if len(t.nodes) > math.MaxInt32 {
			//radlint:allow nopanic int32 node indices cap a forest at 2^31-1 nodes, far beyond any campaign's training set
			panic(fmt.Sprintf("forest: %d nodes overflow int32 indices", len(t.nodes)))
		}
	}
	f.nodes = t.nodes
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

// trainer grows one ensemble. Its scratch buffers are sized once in
// Train and reused by every node of every tree: each is consumed before
// build recurses, so the recursion never needs its own.
type trainer struct {
	X          [][]float64
	y          []int
	cfg        Config
	rng        *rand.Rand
	mtry       int
	importance []float64
	nodes      []node

	counts, lc, rc []int  // class counts: the node, and one candidate's two sides
	feats          []int  // the split's feature permutation
	right          []int  // rows going right while idx is partitioned
	pairs          []pair // one feature's (value, label) at the node, sorted
}

type pair struct {
	v     float64
	label int
}

// build appends the subtree over the bootstrap rows idx in depth-first
// order. It makes the same RNG draws in the same order as the reference
// pointer-tree trainer (one permutation per split attempt, the left
// subtree before the right), so a seed yields the same model.
func (t *trainer) build(idx []int, depth int) {
	at := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1})
	clear(t.counts)
	for _, i := range idx {
		t.counts[t.y[i]]++
	}
	majority, best := 0, -1
	pure := true
	for c, k := range t.counts {
		if k > best {
			best, majority = k, c
		}
		if k != 0 && k != len(idx) {
			pure = false
		}
	}
	t.nodes[at].class = int32(majority)
	if pure || depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinLeaf {
		return
	}
	feature, thresh, gain := t.split(idx)
	if feature < 0 {
		return
	}
	ln := t.partition(idx, feature, thresh)
	t.importance[feature] += float64(gain * float64(len(idx)))
	t.nodes[at] = node{thresh: thresh, feature: int32(feature)}
	t.build(idx[:ln], depth+1)
	t.nodes[at].right = int32(len(t.nodes))
	t.build(idx[ln:], depth+1)
}

// split returns the feature and threshold of the best split of idx and
// its Gini gain, or feature -1 when no candidate gains anything. The
// candidates are midpoints of distinct adjacent sorted values, subsampled
// to about 64 on large nodes. Each sampled feature's (value, label) pairs
// are sorted once and the candidates swept in rising order, carrying the
// left-hand class counts forward instead of recounting the node per
// candidate; the counts, and so every gain, equal the reference's.
func (t *trainer) split(idx []int) (feature int, thresh, gain float64) {
	n := len(idx)
	parent := gini(t.counts, n)
	stride := 1
	if n > 64 {
		stride = n / 64
	}
	pairs := t.pairs[:n]
	feature = -1
	for _, feat := range t.sampleFeatures() {
		for k, r := range idx {
			pairs[k] = pair{t.X[r][feat], t.y[r]}
		}
		slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.v, b.v) })
		// NaNs sort first and never go left: x <= thresh is false for them.
		nan := 0
		for nan < n && math.IsNaN(pairs[nan].v) {
			nan++
		}
		clear(t.lc)
		left := nan
		for i := stride; i < n; i += stride {
			lo, hi := pairs[i-1].v, pairs[i].v
			if hi == lo {
				continue
			}
			th := (hi + lo) / 2
			if math.IsNaN(th) {
				// Next to a NaN, or between -Inf and +Inf: nothing goes
				// left, which MinLeaf >= 1 rejects.
				continue
			}
			// Rounding is monotone, so thresholds never fall as i rises
			// and the left side only grows.
			for left < n && pairs[left].v <= th {
				t.lc[pairs[left].label]++
				left++
			}
			ln := left - nan
			rn := n - ln
			if ln < t.cfg.MinLeaf || rn < t.cfg.MinLeaf {
				continue
			}
			for c, k := range t.counts {
				t.rc[c] = k - t.lc[c]
			}
			g := parent -
				(float64(float64(ln)*gini(t.lc, ln))+float64(float64(rn)*gini(t.rc, rn)))/float64(n)
			if g > gain {
				gain, feature, thresh = g, feat, th
			}
		}
	}
	return feature, thresh, gain
}

// sampleFeatures returns the split's random feature subset: the first
// mtry entries of a permutation built exactly as rand.Perm builds one,
// with the same Intn draws, in a reused buffer.
func (t *trainer) sampleFeatures() []int {
	p := t.feats
	for i := range p {
		j := t.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p[:t.mtry]
}

// partition reorders idx stably so the rows going left come first, and
// returns how many there are.
func (t *trainer) partition(idx []int, feature int, thresh float64) int {
	ln, rn := 0, 0
	for _, r := range idx {
		if t.X[r][feature] <= thresh {
			idx[ln] = r
			ln++
		} else {
			t.right[rn] = r
			rn++
		}
	}
	copy(idx[ln:], t.right[:rn])
	return ln
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, k := range counts {
		p := float64(k) / float64(n)
		g -= float64(p * p)
	}
	return g
}

// Predict returns the majority vote of the trees for x. It does not
// allocate for forests of up to eight classes.
func (f *Forest) Predict(x []float64) int {
	if len(x) != f.features {
		//radlint:allow nopanic feature-count mismatch is a plumbing bug; documented panic contract
		panic(fmt.Sprintf("forest: Predict with %d features, model has %d", len(x), f.features))
	}
	var small [8]int
	votes := small[:]
	if f.classes > len(small) {
		votes = make([]int, f.classes)
	}
	votes = votes[:f.classes]
	for _, root := range f.roots {
		votes[f.classify(root, x)]++
	}
	best, cls := -1, 0
	for c, v := range votes {
		if v > best {
			best, cls = v, c
		}
	}
	return cls
}

// classify walks one tree from nodes[i] down to a leaf.
func (f *Forest) classify(i int32, x []float64) int {
	for {
		n := &f.nodes[i]
		if n.feature < 0 {
			return int(n.class)
		}
		if x[n.feature] <= n.thresh {
			i++
		} else {
			i = n.right
		}
	}
}

// Importance returns normalized per-feature Gini importance (sums to 1
// when the forest made any split).
func (f *Forest) Importance() []float64 {
	return append([]float64(nil), f.importance...)
}
