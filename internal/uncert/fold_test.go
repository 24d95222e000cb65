package uncert

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/randx"
)

// foldNode is one node of a generated epoch stream: its constants, its
// multiplicity before the next epoch and its star data once known.
type foldNode struct {
	id, cat      int32
	weight, mult float64
	star         bool
	deg          float64
	nbrCat       []int32
	nbrCnt       []float64
}

// foldCall is one AddDraws (star false) or AddStar call of an epoch.
type foldCall struct {
	star                     bool
	node, cat                int32
	weight, count, prev, deg float64
	nbrCat                   []int32
	nbrCnt                   []float64
}

// foldNodes draws n nodes over k categories, of which only `used` distinct
// ones appear (a sparse k is touched at scattered points); one node in
// eight is uncategorized.
func foldNodes(r *rand.Rand, k, used, n int) (nodes []foldNode, pool []int32) {
	pool = make([]int32, used)
	for i := range pool {
		pool[i] = int32(r.IntN(k))
	}
	nodes = make([]foldNode, n)
	for i := range nodes {
		nd := &nodes[i]
		nd.id = int32(i - n/4)
		nd.cat = pool[r.IntN(used)]
		if r.IntN(8) == 0 {
			nd.cat = graph.None
		}
		nd.weight = 0.05 + 10*r.Float64()
	}
	return nodes, pool
}

// randomFoldEpoch returns the calls one epoch flush makes for `distinct`
// random nodes, in the flush's order: each node's draws (a re-draw when
// it has earlier multiplicity), then its star terms. Star data arrives on
// a third of the draws of a node without it (a late-star backfill owed to
// its earlier draws when it has any); a known node is sometimes upgraded
// to a larger degree (a retrofit owed to its earlier draws). Neighbor
// lists are sorted and distinct, often hold the node's own category, may
// be empty, and hold zero counts one time in six.
func randomFoldEpoch(r *rand.Rand, nodes []foldNode, pool []int32, distinct int) []foldCall {
	var calls []foldCall
	for _, i := range r.Perm(len(nodes))[:distinct] {
		nd := &nodes[i]
		c, prev := float64(1+r.IntN(3)), nd.mult
		base := foldCall{node: nd.id, cat: nd.cat, weight: nd.weight}
		draw := base
		draw.count, draw.prev = c, prev
		calls = append(calls, draw)
		star := base
		star.star = true
		switch {
		case !nd.star && r.IntN(3) == 0:
			seen := map[int32]bool{}
			if nd.cat != graph.None && r.IntN(2) == 0 {
				seen[nd.cat] = true
			}
			for range r.IntN(9) {
				seen[pool[r.IntN(len(pool))]] = true
			}
			for b := range seen {
				nd.nbrCat = append(nd.nbrCat, b)
			}
			slices.Sort(nd.nbrCat)
			for range nd.nbrCat {
				x := float64(r.IntN(20))
				if r.IntN(6) == 0 {
					x = 0
				}
				nd.nbrCnt = append(nd.nbrCnt, x)
				nd.deg += x
			}
			nd.deg += float64(r.IntN(3)) // uncategorized neighbors
			nd.star = true
			star.count, star.deg, star.nbrCat, star.nbrCnt = c, nd.deg, nd.nbrCat, nd.nbrCnt
			calls = append(calls, star)
			if prev > 0 {
				star.count = prev
				calls = append(calls, star)
			}
		case nd.star && r.IntN(10) == 0:
			delta := float64(1 + r.IntN(3))
			nd.deg += delta
			star.count, star.deg, star.nbrCat, star.nbrCnt = c, nd.deg, nd.nbrCat, nd.nbrCnt
			calls = append(calls, star)
			if prev > 0 {
				owed := base
				owed.star, owed.count, owed.deg = true, prev, delta
				calls = append(calls, owed)
			}
		case nd.star:
			star.count, star.deg, star.nbrCat, star.nbrCnt = c, nd.deg, nd.nbrCat, nd.nbrCnt
			calls = append(calls, star)
		}
		nd.mult += c
	}
	return calls
}

// oracleReplicates credits calls to rs one term at a time through the
// sparse oracle.
func oracleReplicates(rs *Replicates, calls []foldCall) {
	o := &sparseOracle{rs: rs}
	for _, c := range calls {
		if c.star {
			o.AddStar(c.node, c.cat, c.weight, c.count, c.deg, c.nbrCat, c.nbrCnt)
		} else {
			o.AddDraws(c.node, c.cat, c.weight, c.count, c.prev)
		}
	}
}

func foldReplicates(f *ReplicateFold, rs *Replicates, calls []foldCall) {
	for _, c := range calls {
		if c.star {
			f.AddStar(c.node, c.cat, c.weight, c.count, c.deg, c.nbrCat, c.nbrCnt)
		} else {
			f.AddDraws(c.node, c.cat, c.weight, c.count, c.prev)
		}
	}
	f.Fold(rs)
}

// compareFolded checks every replicate vector of got against want within
// tol relative (tol 0 demands equal bits). A pair of want must exist in
// got; a pair only got holds must be zero (Reset keeps zeroed vectors), or
// is an error when samePairs is set.
func compareFolded(t *testing.T, what string, got, want *Replicates, tol float64, samePairs bool) {
	t.Helper()
	gv, wv := rawVectors(got), rawVectors(want)
	for name, g := range gv {
		w, ok := wv[name]
		if !ok {
			if samePairs || slices.ContainsFunc(g, func(x float64) bool { return x != 0 }) {
				t.Fatalf("%s: %s is stored, the reference has no such vector", what, name)
			}
			continue
		}
		for i := range w {
			if math.Float64bits(g[i]) == math.Float64bits(w[i]) {
				continue
			}
			if tol == 0 || math.Abs(g[i]-w[i]) > tol*max(math.Abs(g[i]), math.Abs(w[i])) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", what, name, i, g[i], w[i])
			}
		}
	}
	for name := range wv {
		if _, ok := gv[name]; !ok {
			t.Fatalf("%s: %s is missing", what, name)
		}
	}
	gd, wd := slices.Sorted(slices.Values(got.dirtyCats)), slices.Sorted(slices.Values(want.dirtyCats))
	if !slices.Equal(gd, wd) {
		t.Fatalf("%s: dirty categories %v, reference %v", what, gd, wd)
	}
}

// TestReplicateFoldMatchesPerNode checks the category-row fold against the
// sparse oracle's per-node terms on random epochs (re-draws, late-star
// backfills, degree retrofits, uncategorized nodes, empty neighbor lists),
// for a dense K = 3 and a sparse K = 2¹⁶: every replicate vector within
// 1e-12 relative, the same created pairs and dirty categories, a refold
// on the reused fold and Reset replicates bit for bit equal to a fresh
// fold into fresh replicates, and no credit from an empty fold. K = 2¹⁶
// runs B up to 16, the largest B whose K·B grids the daemon admits
// (job.MaxReplicateCells = 2²⁰ cells).
func TestReplicateFoldMatchesPerNode(t *testing.T) {
	for _, c := range []struct {
		k, used int
		bs      []int
	}{{3, 3, []int{1, 7, 100, 257}}, {1 << 16, 40, []int{1, 7, 16}}} {
		for _, B := range c.bs {
			r := randx.New(uint64(c.k) + uint64(B))
			cfg := Config{B: B, Seed: uint64(B)*7 + 3}
			nodes, pool := foldNodes(r, c.k, c.used, 900)
			f := NewReplicateFold(c.k)
			reused := mustReplicates(t, c.k, cfg)
			for round := range 4 {
				what := fmt.Sprintf("K=%d B=%d round %d", c.k, B, round)
				calls := randomFoldEpoch(r, nodes, pool, 50+r.IntN(400))
				want := mustReplicates(t, c.k, cfg)
				oracleReplicates(want, calls)
				fresh := mustReplicates(t, c.k, cfg)
				foldReplicates(NewReplicateFold(c.k), fresh, calls)
				compareFolded(t, what, fresh, want, 1e-12, true)
				reused.Reset()
				foldReplicates(f, reused, calls)
				compareFolded(t, what+" (refold)", reused, fresh, 0, false)
			}
			reused.Reset()
			foldReplicates(f, reused, nil)
			compareFolded(t, fmt.Sprintf("K=%d B=%d empty fold", c.k, B), reused, mustReplicates(t, c.k, cfg), 0, false)
			if len(reused.dirtyPairs) != 0 {
				t.Fatalf("K=%d B=%d: an empty fold dirtied %d pairs", c.k, B, len(reused.dirtyPairs))
			}
		}
	}
}

func mustReplicates(t testing.TB, k int, cfg Config) *Replicates {
	t.Helper()
	rs, err := NewReplicates(k, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// benchFoldEpochs returns n crawl-shaped epochs over k categories: 920
// distinct nodes each, every node with star data over 5 of the epoch's 10
// categories (its own often among them), a count of 1–2 and an earlier
// multiplicity of 0–3. Each epoch draws its 10 categories afresh, so at a
// large k successive epochs touch disjoint pairs.
func benchFoldEpochs(r *rand.Rand, k, n int) [][]foldCall {
	epochs := make([][]foldCall, n)
	for e := range epochs {
		cats := make([]int32, 10)
		for i, c := range r.Perm(k)[:10] {
			cats[i] = int32(c)
		}
		for i := range 920 {
			cat := cats[r.IntN(len(cats))]
			nbrs := make([]int32, 0, 5)
			for _, j := range r.Perm(len(cats))[:5] {
				nbrs = append(nbrs, cats[j])
			}
			slices.Sort(nbrs)
			cnts := make([]float64, len(nbrs))
			var deg float64
			for j := range cnts {
				cnts[j] = float64(1 + r.IntN(6))
				deg += cnts[j]
			}
			base := foldCall{node: int32(e*920 + i), cat: cat, weight: 1 + 20*r.Float64()}
			draw, star := base, base
			draw.count, draw.prev = float64(1+r.IntN(2)), float64(r.IntN(4))
			star.star, star.count, star.deg, star.nbrCat, star.nbrCnt = true, draw.count, deg, nbrs, cnts
			epochs[e] = append(epochs[e], draw, star)
		}
	}
	return epochs
}

// BenchmarkReplicateFold times one crawl-shaped epoch's replicate credit
// (920 distinct nodes with 5 neighbor categories each at B = 100, the
// per-flush traffic of the crawl-budget workload) through the category-row
// fold. Each op credits the next of 64 epochs into empty replicates,
// merges them into published ones and resets them, as an epoch flush does. At K = 65536 the epochs
// touch disjoint pairs, so the epoch's replicates hold zeroed vectors of
// every pair earlier ops touched: the row costs what the K = 10 row costs
// only if Merge and Reset walk just the epoch's own pairs.
func BenchmarkReplicateFold(b *testing.B) {
	for _, k := range []int{10, 1 << 16} {
		epochs := benchFoldEpochs(randx.New(1), k, 64)
		cfg := Config{B: 100, Seed: 1}
		rs, pub := mustReplicates(b, k, cfg), mustReplicates(b, k, cfg)
		b.Run(fmt.Sprintf("K=%d/fold", k), func(b *testing.B) {
			f := NewReplicateFold(k)
			for i := 0; b.Loop(); i++ {
				foldReplicates(f, rs, epochs[i%len(epochs)])
				if err := pub.Merge(rs); err != nil {
					b.Fatal(err)
				}
				rs.Reset()
			}
		})
	}
}

// decodeFoldCalls decodes fuzz input into a fold's replicate configuration
// and calls: K ∈ [1, 70] and B ∈ [1, 64] from the first two bytes, a seed
// from the third, then up to 256 terms of three bytes and more. A term
// names one of 24 nodes (ids from −8, so nodes repeat and some are
// negative), whose category (uncategorized one time in K+1) and weight
// come from the node's first term. A draw term carries its count and
// earlier multiplicity; a star term its count, degree and a sorted,
// distinct neighbor list that may be empty or hold zero counts; an owed
// term is a late-star backfill or degree retrofit of the node's earlier
// multiplicity, with or without neighbor counts.
func decodeFoldCalls(data []byte) (k int, cfg Config, calls []foldCall) {
	if len(data) < 3 {
		return 0, Config{}, nil
	}
	k, cfg = 1+int(data[0])%70, Config{B: 1 + int(data[1])%64, Seed: uint64(data[2])}
	data = data[3:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		x := int(data[0])
		data = data[1:]
		return x
	}
	type node struct {
		known  bool
		cat    int32
		weight float64
		mult   float64
	}
	var nodes [24]node
	for len(data) >= 3 && len(calls) < 256 {
		kind, id := next()%3, next()%len(nodes)
		nd := &nodes[id]
		if !nd.known {
			nd.known = true
			nd.cat = int32(next()%(k+1)) - 1
			nd.weight = 0.125 + float64(next())/16
		}
		c := foldCall{node: int32(id - 8), cat: nd.cat, weight: nd.weight}
		switch kind {
		case 0:
			c.count, c.prev = float64(1+next()%4), nd.mult
			nd.mult += c.count
		default:
			c.star, c.count = true, float64(1+next()%4)
			if kind == 2 {
				c.count = nd.mult
			}
			c.deg = float64(next() % 16)
			seen := map[int32]bool{}
			for range next() % (min(k, 8) + 1) {
				seen[int32(next()%k)] = true
			}
			c.nbrCat = slices.Sorted(maps.Keys(seen))
			for range c.nbrCat {
				c.nbrCnt = append(c.nbrCnt, float64(next()%4))
			}
		}
		calls = append(calls, c)
	}
	return k, cfg, calls
}

// FuzzReplicateFold folds decoded terms (see decodeFoldCalls) and requires
// every replicate vector within 1e-12 relative of the sparse oracle's
// per-term credit, with the same dirty categories and the same pairs.
func FuzzReplicateFold(f *testing.F) {
	f.Add([]byte{3, 7, 1, 0, 0, 1, 40, 1, 1, 1, 2, 3, 2, 0, 1, 2, 2, 0, 5, 3, 0, 1, 2, 1, 2, 3, 9, 0, 0, 2, 4})
	f.Add([]byte{69, 63, 9, 1, 5, 70, 8, 2, 6, 5, 1, 2, 3, 0, 5, 3, 1, 6, 0, 8, 0, 2, 9, 1, 0, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 3, 0, 3, 2, 1, 0, 0, 2, 3, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, cfg, calls := decodeFoldCalls(data)
		if k == 0 {
			return
		}
		got, want := mustReplicates(t, k, cfg), mustReplicates(t, k, cfg)
		foldReplicates(NewReplicateFold(k), got, calls)
		oracleReplicates(want, calls)
		compareFolded(t, "fold", got, want, 1e-12, true)
		if len(got.pairs) != len(want.pairs) {
			t.Fatalf("fold created %d pairs, the oracle %d", len(got.pairs), len(want.pairs))
		}
		gp, wp := slices.Sorted(slices.Values(got.dirtyPairs)), slices.Sorted(slices.Values(want.dirtyPairs))
		if !slices.Equal(gp, wp) {
			t.Fatalf("dirty pairs %v, oracle %v", gp, wp)
		}
	})
}
