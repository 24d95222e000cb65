package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/randx"
)

// foldTerm is one node's star terms, with AddStar's arguments.
type foldTerm struct {
	cat                int32
	weight, count, deg float64
	nbrCat             []int32
	nbrCnt             []float64
}

// randomFoldTerms draws n nodes' star terms over k categories, of which
// only `used` distinct ones appear (categories repeat across nodes, and a
// sparse k is touched only at scattered points). A node's category is
// graph.None one time in eight; its neighbor list is sorted and distinct,
// holds up to maxNbrs categories, often includes its own category, and
// holds zero counts one time in six.
func randomFoldTerms(r *rand.Rand, k, used, n, maxNbrs int) []foldTerm {
	pool := make([]int32, used)
	for i := range pool {
		pool[i] = int32(r.IntN(k))
	}
	terms := make([]foldTerm, n)
	for i := range terms {
		tm := &terms[i]
		tm.cat = pool[r.IntN(used)]
		if r.IntN(8) == 0 {
			tm.cat = graph.None
		}
		tm.weight = 0.05 + 10*r.Float64()
		tm.count = float64(1 + r.IntN(4))
		seen := map[int32]bool{}
		if tm.cat != graph.None && r.IntN(2) == 0 {
			seen[tm.cat] = true
		}
		for range r.IntN(maxNbrs + 1) {
			seen[pool[r.IntN(used)]] = true
		}
		nbrs := make([]int32, 0, len(seen))
		for b := range seen {
			nbrs = append(nbrs, b)
		}
		slices.Sort(nbrs)
		for _, b := range nbrs {
			c := float64(r.IntN(20))
			if r.IntN(6) == 0 {
				c = 0
			}
			tm.nbrCat = append(tm.nbrCat, b)
			tm.nbrCnt = append(tm.nbrCnt, c)
			tm.deg += c
		}
		tm.deg += float64(r.IntN(3)) // uncategorized neighbors
	}
	return terms
}

func foldSums(f *StarFold, k int, terms []foldTerm) *Sums {
	s := NewSums(k, true)
	for _, tm := range terms {
		f.Add(tm.cat, tm.weight, tm.count, tm.deg, tm.nbrCat, tm.nbrCnt)
	}
	f.Fold(s)
	return s
}

func addStarSums(k int, terms []foldTerm) *Sums {
	s := NewSums(k, true)
	for _, tm := range terms {
		s.AddStar(tm.cat, tm.weight, tm.count, tm.deg, tm.nbrCat, tm.nbrCnt)
	}
	return s
}

// compareStarSums checks that got stores exactly want's pairs and agrees
// with it field by field within tol relative (tol 0 demands equal bits).
func compareStarSums(t *testing.T, what string, got, want *Sums, tol float64) {
	t.Helper()
	near := func(field string, g, w float64) {
		t.Helper()
		if tol == 0 && math.Float64bits(g) == math.Float64bits(w) {
			return
		}
		if tol == 0 || math.Abs(g-w) > tol*max(math.Abs(g), math.Abs(w)) {
			t.Fatalf("%s: %s = %v, want %v", what, field, g, w)
		}
	}
	near("DegNum", got.DegNum, want.DegNum)
	for c := range want.K {
		near(fmt.Sprintf("DegNumA[%d]", c), got.DegNumA[c], want.DegNumA[c])
		near(fmt.Sprintf("NbrNum[%d]", c), got.NbrNum[c], want.NbrNum[c])
		near(fmt.Sprintf("WithinNum[%d]", c), got.WithinNum[c], want.WithinNum[c])
	}
	if got.PairNum.Len() != want.PairNum.Len() {
		t.Fatalf("%s: %d stored pairs, want %d", what, got.PairNum.Len(), want.PairNum.Len())
	}
	want.PairNum.ForEach(func(a, b int32, w float64) {
		if i := got.PairNum.slot(pairKey(a, b)); got.PairNum.keys[i] != pairKey(a, b) {
			t.Fatalf("%s: pair (%d,%d) not stored", what, a, b)
		}
		near(fmt.Sprintf("PairNum(%d,%d)", a, b), got.PairNum.Get(a, b), w)
	})
}

// TestStarFoldMatchesAddStar checks the grouped fold against per-node
// AddStar on random terms, for a dense K = 3 and a sparse K = 2¹⁶: the same
// stored pair set (WeightsStar emits every stored pair, zero or not), every
// field within 1e-12 relative, and a second fold on the reused scratch bit
// for bit equal to a fresh fold of the same terms.
func TestStarFoldMatchesAddStar(t *testing.T) {
	for _, c := range []struct{ k, used int }{{3, 3}, {1 << 16, 40}} {
		r := randx.New(uint64(c.k))
		f := NewStarFold(c.k)
		for round := range 3 {
			terms := randomFoldTerms(r, c.k, c.used, 50+r.IntN(500), 8)
			what := fmt.Sprintf("K=%d round %d", c.k, round)
			got := foldSums(f, c.k, terms)
			compareStarSums(t, what, got, addStarSums(c.k, terms), 1e-12)
			compareStarSums(t, what+" (fresh fold)", got, foldSums(NewStarFold(c.k), c.k, terms), 0)
		}
		if got := foldSums(f, c.k, nil); got.DegNum != 0 || got.PairNum.Len() != 0 {
			t.Fatalf("K=%d: an empty fold credited DegNum %v and %d pairs", c.k, got.DegNum, got.PairNum.Len())
		}
	}
}

// BenchmarkStarFold times one epoch's star credit through the grouped fold
// and through per-node AddStar. An epoch credits 468 nodes with about 5
// neighbor categories each, drawn at random from 12,740 nodes: the
// per-flush traffic and the graph size of the star-binary-ingest workload.
// Each op credits the next of 256 such epochs, starting from an empty pair
// table as a flush does, so neither the caches nor the branch predictors
// hold one epoch's terms across ops. The sparse K = 2¹⁶ rows show that the
// fold does no O(K) work per flush.
func BenchmarkStarFold(b *testing.B) {
	for _, c := range []struct {
		name    string
		k, used int
	}{{"K=10", 10, 10}, {"K=65536", 1 << 16, 1 << 16}} {
		r := randx.New(1)
		nodes := randomFoldTerms(r, c.k, c.used, 12740, 10)
		epochs := make([][]foldTerm, 256)
		for i := range epochs {
			epochs[i] = make([]foldTerm, 468)
			for j := range epochs[i] {
				epochs[i][j] = nodes[r.IntN(len(nodes))]
			}
		}
		b.Run(c.name+"/fold", func(b *testing.B) {
			f, s := NewStarFold(c.k), NewSums(c.k, true)
			for i := 0; b.Loop(); i++ {
				s.PairNum.Reset()
				for _, tm := range epochs[i%len(epochs)] {
					f.Add(tm.cat, tm.weight, tm.count, tm.deg, tm.nbrCat, tm.nbrCnt)
				}
				f.Fold(s)
			}
		})
		b.Run(c.name+"/addstar", func(b *testing.B) {
			s := NewSums(c.k, true)
			for i := 0; b.Loop(); i++ {
				s.PairNum.Reset()
				for _, tm := range epochs[i%len(epochs)] {
					s.AddStar(tm.cat, tm.weight, tm.count, tm.deg, tm.nbrCat, tm.nbrCnt)
				}
			}
		})
	}
}
