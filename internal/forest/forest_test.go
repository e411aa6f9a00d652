package forest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// separableDataset returns a 2D dataset where class = 1 iff x0 > 5.
func separableDataset(rng *rand.Rand, n int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 10 // noise feature
		X[i] = []float64{x0, x1}
		if x0 > 5 {
			y[i] = 1
		}
	}
	return X, y
}

func TestLearnsSeparableBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := separableDataset(rng, 500)
	f := Train(X, y, Config{Trees: 20, Seed: 2})
	correct := 0
	for i := 0; i < 200; i++ {
		x0 := rng.Float64() * 10
		want := 0
		if x0 > 5 {
			want = 1
		}
		if f.Predict([]float64{x0, rng.Float64() * 10}) == want {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.95 {
		t.Fatalf("accuracy = %.3f, want ≥0.95", acc)
	}
}

func TestImportanceIdentifiesSignalFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := separableDataset(rng, 500)
	f := Train(X, y, Config{Trees: 20, Seed: 4, FeatureFrac: 1})
	imp := f.Importance()
	if imp[0] <= imp[1] {
		t.Fatalf("importance = %v, want feature 0 dominant", imp)
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("importance sum = %v, want 1", sum)
	}
}

func TestPureNodeShortCircuits(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{0, 0, 0}
	f := Train(X, y, Config{Trees: 3, Seed: 1})
	if got := f.Predict([]float64{99}); got != 0 {
		t.Fatalf("single-class forest predicted %d", got)
	}
}

func TestMinLeafRespected(t *testing.T) {
	// With MinLeaf = n, no split is legal: the tree must be a leaf that
	// predicts the majority class everywhere.
	X := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}}
	y := []int{0, 0, 0, 0, 1, 1}
	f := Train(X, y, Config{Trees: 5, MinLeaf: 6, Seed: 2})
	for _, v := range []float64{0, 5} {
		if got := f.Predict([]float64{v}); got != 0 {
			t.Fatalf("Predict(%v) = %d, want majority 0", v, got)
		}
	}
}

func TestTrainPanicsOnMalformedInput(t *testing.T) {
	cases := []func(){
		func() { Train(nil, nil, Config{}) },
		func() { Train([][]float64{{1}}, []int{0, 1}, Config{}) },
		func() { Train([][]float64{{1}, {1, 2}}, []int{0, 1}, Config{}) },
		func() { Train([][]float64{{1}}, []int{-1}, Config{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := separableDataset(rng, 50)
	f := Train(X, y, Config{Trees: 3, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	f.Predict([]float64{1})
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := separableDataset(rng, 300)
	a := Train(X, y, Config{Trees: 10, Seed: 42})
	b := Train(X, y, Config{Trees: 10, Seed: 42})
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 5, float64(50-i) / 5}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same-seed forests diverged")
		}
	}
}

func TestMulticlass(t *testing.T) {
	// Three bands on one feature.
	rng := rand.New(rand.NewSource(13))
	var X [][]float64
	var y []int
	for i := 0; i < 600; i++ {
		v := rng.Float64() * 30
		X = append(X, []float64{v})
		y = append(y, int(v/10))
	}
	f := Train(X, y, Config{Trees: 25, Seed: 3})
	cases := map[float64]int{2: 0, 15: 1, 28: 2}
	for v, want := range cases {
		if got := f.Predict([]float64{v}); got != want {
			t.Errorf("Predict(%v) = %d, want %d", v, got, want)
		}
	}
}

// refCase is one training set and config on which the flat forest must
// reproduce the reference pointer-tree forest exactly.
type refCase struct {
	name     string
	seed     int64
	rows     int
	features int
	classes  int
	dup      bool // values on a half-unit grid, so most candidates tie
	special  bool // NaN, ±Inf, ±0, ±MaxFloat64 and subnormals mixed in
	cfg      Config
}

// specials are the values that stress threshold arithmetic: NaN
// thresholds, infinite and overflowing midpoints, signed zeros.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// data returns the training rows and labels, plus query rows: every
// training row and as many fresh ones.
func (c refCase) data() (X [][]float64, y []int, queries [][]float64) {
	rng := rand.New(rand.NewSource(c.seed))
	row := func(label int) []float64 {
		r := make([]float64, c.features)
		for j := range r {
			// Feature j shifts with the label, so splits have signal.
			v := float64(label*(j%3)) + rng.NormFloat64()
			if c.dup {
				v = math.Round(v*2) / 2
			}
			if c.special && rng.Intn(8) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			r[j] = v
		}
		return r
	}
	for i := 0; i < c.rows; i++ {
		label := rng.Intn(c.classes)
		X = append(X, row(label))
		y = append(y, label)
	}
	queries = append(queries, X...)
	for i := 0; i < c.rows; i++ {
		queries = append(queries, row(rng.Intn(c.classes)))
	}
	return X, y, queries
}

// sameTree compares the flat tree at nodes[i] with the reference subtree
// n, node for node, and returns the index just past the flat subtree.
func sameTree(t *testing.T, f *Forest, i int32, n *refNode) int32 {
	t.Helper()
	got := f.nodes[i]
	if n.feature < 0 {
		if got.feature >= 0 || int(got.class) != n.class {
			t.Fatalf("node %d: got feature %d class %d, want leaf of class %d", i, got.feature, got.class, n.class)
		}
		return i + 1
	}
	if int(got.feature) != n.feature || math.Float64bits(got.thresh) != math.Float64bits(n.thresh) {
		t.Fatalf("node %d: got split x[%d] <= %v, want x[%d] <= %v", i, got.feature, got.thresh, n.feature, n.thresh)
	}
	next := sameTree(t, f, i+1, n.left)
	if got.right != next {
		t.Fatalf("node %d: right child at %d, want %d", i, got.right, next)
	}
	return sameTree(t, f, next, n.right)
}

func checkMatchesReference(t *testing.T, c refCase) {
	t.Helper()
	X, y, queries := c.data()
	want := refTrain(X, y, c.cfg)
	got := Train(X, y, c.cfg)

	if len(got.roots) != len(want.trees) {
		t.Fatalf("%d trees, want %d", len(got.roots), len(want.trees))
	}
	end := int32(0)
	for k, root := range got.roots {
		if root != end {
			t.Fatalf("tree %d rooted at %d, want %d", k, root, end)
		}
		end = sameTree(t, got, root, want.trees[k])
	}
	if int(end) != len(got.nodes) {
		t.Fatalf("trees end at node %d of %d", end, len(got.nodes))
	}
	for _, q := range queries {
		if g, w := got.Predict(q), want.Predict(q); g != w {
			t.Fatalf("Predict(%v) = %d, want %d", q, g, w)
		}
	}
	gi, wi := got.Importance(), want.Importance()
	for j := range wi {
		if math.Float64bits(gi[j]) != math.Float64bits(wi[j]) {
			t.Fatalf("Importance = %v, want %v", gi, wi)
		}
	}
}

func TestMatchesReference(t *testing.T) {
	cases := []refCase{
		{name: "separable", seed: 1, rows: 300, features: 2, classes: 2, cfg: Config{Trees: 10, Seed: 2}},
		{name: "current-only", seed: 2, rows: 3000, features: 1, classes: 2, dup: true, cfg: Config{Trees: 5, MaxDepth: 8, Seed: 3}},
		{name: "multiclass", seed: 3, rows: 400, features: 4, classes: 4, cfg: Config{Trees: 8, Seed: 4}},
		{name: "ties", seed: 4, rows: 250, features: 3, classes: 3, dup: true, cfg: Config{Trees: 8, FeatureFrac: 1, Seed: 5}},
		{name: "specials", seed: 5, rows: 300, features: 3, classes: 2, special: true, cfg: Config{Trees: 8, Seed: 6}},
		{name: "specials-ties", seed: 6, rows: 500, features: 6, classes: 4, dup: true, special: true, cfg: Config{Trees: 6, FeatureFrac: 0.4, Seed: 7}},
		{name: "min-leaf-1", seed: 7, rows: 200, features: 2, classes: 3, cfg: Config{Trees: 6, MinLeaf: 1, MaxDepth: 30, Seed: 8}},
		{name: "min-leaf-huge", seed: 8, rows: 100, features: 2, classes: 2, cfg: Config{Trees: 4, MinLeaf: 60, Seed: 9}},
		{name: "depth-1", seed: 9, rows: 200, features: 5, classes: 3, cfg: Config{Trees: 6, MaxDepth: 1, Seed: 10}},
		{name: "one-row", seed: 10, rows: 1, features: 3, classes: 2, cfg: Config{Trees: 3, Seed: 11}},
		{name: "ten-classes", seed: 11, rows: 600, features: 3, classes: 10, cfg: Config{Trees: 6, MinLeaf: 1, Seed: 12}},
	}
	// Random shapes across the same ranges.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		cases = append(cases, refCase{
			name: fmt.Sprintf("random-%d", i), seed: rng.Int63(),
			rows: 1 + rng.Intn(400), features: 1 + rng.Intn(6), classes: 2 + rng.Intn(3),
			dup: rng.Intn(2) == 0, special: rng.Intn(2) == 0,
			cfg: Config{Trees: 1 + rng.Intn(8), MaxDepth: rng.Intn(14), MinLeaf: rng.Intn(20),
				FeatureFrac: rng.Float64() * 1.2, Seed: rng.Int63()},
		})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkMatchesReference(t, c) })
	}
}

// FuzzMatchesReference lets the engine pick dataset shapes and configs;
// a zero MinLeaf or MaxDepth and an out-of-range fraction take the
// defaults.
func FuzzMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(5), false, false)
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, features, classes, minLeaf, maxDepth, fracPct, trees uint8, dup, special bool) {
		checkMatchesReference(t, refCase{
			seed: seed, rows: 1 + int(rows%400), features: 1 + int(features%6), classes: 2 + int(classes%3),
			dup: dup, special: special,
			cfg: Config{Trees: 1 + int(trees%10), MinLeaf: int(minLeaf % 40), MaxDepth: int(maxDepth % 16),
				FeatureFrac: float64(fracPct) / 100, Seed: seed},
		})
	})
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, y := separableDataset(rng, 1000)
	f := Train(X, y, Config{Trees: 50, Seed: 1})
	x := []float64{3.3, 7.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(x)
	}
}
