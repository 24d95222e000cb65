package sample

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/randx"
)

// mapObserver is the observer the bitset/count-array StreamObserver
// replaced — a seen map, a per-call count map and a sort.Slice over its
// keys — kept as the reference its records must match exactly.
type mapObserver struct {
	src    graph.Source
	star   bool
	seen   map[int32]bool
	counts map[int32]float64
	cats   []int32
}

func (so *mapObserver) Observe(v int32, weight float64) NodeObservation {
	rec := NodeObservation{Node: v, Weight: weight, Cat: so.src.Category(v)}
	first := !so.seen[v]
	so.seen[v] = true
	if !first {
		return rec
	}
	if so.star {
		rec.Deg = float64(so.src.Degree(v))
		if so.counts == nil {
			so.counts = make(map[int32]float64)
		}
		clear(so.counts)
		for _, u := range so.src.Neighbors(v) {
			if c := so.src.Category(u); c != graph.None {
				so.counts[c]++
			}
		}
		so.cats = so.cats[:0]
		for c := range so.counts {
			so.cats = append(so.cats, c)
		}
		sort.Slice(so.cats, func(a, b int) bool { return so.cats[a] < so.cats[b] })
		for _, c := range so.cats {
			rec.NbrCat = append(rec.NbrCat, c)
			rec.NbrCnt = append(rec.NbrCnt, so.counts[c])
		}
	} else {
		for _, u := range so.src.Neighbors(v) {
			if u != v && so.seen[u] {
				rec.Peers = append(rec.Peers, u)
			}
		}
	}
	return rec
}

// countingSource counts the per-node queries an observer issues.
type countingSource struct {
	graph.Source
	degree, neighbors, category int
}

func (c *countingSource) Degree(v int32) int {
	c.degree++
	return c.Source.Degree(v)
}

func (c *countingSource) Neighbors(v int32) []int32 {
	c.neighbors++
	return c.Source.Neighbors(v)
}

func (c *countingSource) Category(v int32) int32 {
	c.category++
	return c.Source.Category(v)
}

// oracleTestGraph builds a random graph over k categories with
// uncategorized nodes, isolated nodes (ids ≥ 250) and a hub (node 0)
// adjacent to nodes of every category.
func oracleTestGraph(t *testing.T, k int) *graph.Graph {
	t.Helper()
	const n, connected = 300, 250
	r := randx.New(17)
	cat := make([]int32, n)
	for v := range cat {
		cat[v] = int32(r.IntN(k))
		if r.IntN(8) == 0 {
			cat[v] = graph.None
		}
	}
	b := graph.NewBuilder(n)
	for v := 1; v < connected; v++ {
		b.AddEdge(0, int32(v))
	}
	for i := 0; i < 3*connected; i++ {
		u, v := int32(1+r.IntN(connected-1)), int32(1+r.IntN(connected-1))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCategories(cat, k, nil); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamObserverMatchesMapOracle replays one draw sequence through the
// StreamObserver and the map-based oracle, each over its own counting
// source, and requires identical records and identical query counts under
// both scenarios.
func TestStreamObserverMatchesMapOracle(t *testing.T) {
	const k = 80
	g := oracleTestGraph(t, k)
	hubCats := map[int32]bool{}
	for _, u := range g.Neighbors(0) {
		if c := g.Category(u); c != graph.None {
			hubCats[c] = true
		}
	}
	if len(hubCats) < 64 {
		t.Fatalf("hub spans %d categories, want ≥ 64", len(hubCats))
	}
	for _, star := range []bool{true, false} {
		gotSrc, wantSrc := &countingSource{Source: g}, &countingSource{Source: g}
		so, err := NewStreamObserver(gotSrc, star)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &mapObserver{src: wantSrc, star: star, seen: map[int32]bool{}}
		gotSrc.degree, gotSrc.neighbors, gotSrc.category = 0, 0, 0
		r := randx.New(3)
		seq := []int32{0, 0, 299, 1}
		for i := 0; i < 2000; i++ {
			seq = append(seq, int32(r.IntN(g.N())))
		}
		for i, v := range seq {
			w := float64(1 + i%3)
			got, want := so.Observe(v, w), oracle.Observe(v, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("star=%v draw %d (node %d): record %+v, oracle %+v", star, i, v, got, want)
			}
		}
		if *gotSrc != *wantSrc {
			t.Fatalf("star=%v: queries degree/neighbors/category = %d/%d/%d, oracle %d/%d/%d", star,
				gotSrc.degree, gotSrc.neighbors, gotSrc.category, wantSrc.degree, wantSrc.neighbors, wantSrc.category)
		}
	}
}
