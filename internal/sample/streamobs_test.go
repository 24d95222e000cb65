package sample

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/randx"
)

// streamTestGraph builds a small categorized graph: a 6-cycle with a chord,
// categories {0,0,1,1,2,None}.
func streamTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddEdge(int32(i), int32((i+1)%6))
	}
	b.AddEdge(0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCategories([]int32{0, 0, 1, 1, 2, graph.None}, 3, nil); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamObserverInducedEdgesOnce checks that each edge of G[S] is
// reported exactly once, by its second-observed endpoint, and that re-draws
// carry no peers.
func TestStreamObserverInducedEdgesOnce(t *testing.T) {
	g := streamTestGraph(t)
	so, err := NewStreamObserver(g, false)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int32{0, 1, 0, 3, 1}
	edges := 0
	for _, v := range seq {
		rec := so.Observe(v, 1)
		edges += len(rec.Peers)
	}
	o, err := ObserveInduced(g, &Sample{Nodes: seq})
	if err != nil {
		t.Fatal(err)
	}
	// Observed subgraph on {0,1,3}: edges {0,1} and {0,3} (the chord).
	if edges != 2 || len(o.Edges) != 2 {
		t.Fatalf("reported %d peers, stored %d edges, want 2/2", edges, len(o.Edges))
	}
	for _, e := range o.Edges {
		if e[0] >= e[1] {
			t.Fatalf("edge indices not ordered: %v", e)
		}
	}
}

// TestObserveMatchesBatchOnRandomSample cross-checks the streaming path that
// now backs ObserveInduced/ObserveStar against a straightforward independent
// re-derivation of the observation on a random multiset sample.
func TestObserveMatchesBatchOnRandomSample(t *testing.T) {
	g := streamTestGraph(t)
	r := randx.New(11)
	s := &Sample{}
	for i := 0; i < 40; i++ {
		v := int32(r.IntN(g.N()))
		s.Nodes = append(s.Nodes, v)
		s.Weights = append(s.Weights, 1+float64(v))
	}
	o, err := ObserveInduced(g, s)
	if err != nil {
		t.Fatal(err)
	}
	// Multiplicities must sum to |S| and match direct counting.
	var total float64
	counts := map[int32]float64{}
	for _, v := range s.Nodes {
		counts[v]++
	}
	for i, v := range o.Nodes {
		if o.Mult[i] != counts[v] {
			t.Fatalf("node %d: mult %g want %g", v, o.Mult[i], counts[v])
		}
		total += o.Mult[i]
	}
	if int(total) != s.Len() || o.Draws != s.Len() {
		t.Fatalf("mult total %g draws %d, want %d", total, o.Draws, s.Len())
	}
	// Every edge of G[S] appears exactly once.
	want := map[[2]int32]int{}
	for i, u := range o.Nodes {
		for j, v := range o.Nodes {
			if i < j && g.HasEdge(u, v) {
				want[[2]int32{int32(i), int32(j)}]++
			}
		}
	}
	got := map[[2]int32]int{}
	for _, e := range o.Edges {
		got[e]++
	}
	if len(got) != len(want) {
		t.Fatalf("edge sets differ: got %v want %v", got, want)
	}
	for e, n := range got {
		if n != 1 || want[e] != 1 {
			t.Fatalf("edge %v seen %d times", e, n)
		}
	}
	// Star path: degrees and neighbor counts match the graph.
	os, err := ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range os.Nodes {
		if int(os.Deg[i]) != g.Degree(v) {
			t.Fatalf("node %d: deg %g want %d", v, os.Deg[i], g.Degree(v))
		}
		for c := int32(0); c < int32(os.K); c++ {
			wantC := 0.0
			for _, u := range g.Neighbors(v) {
				if g.Category(u) == c {
					wantC++
				}
			}
			if os.NbrCount(i, c) != wantC {
				t.Fatalf("node %d cat %d: nbr count %g want %g", v, c, os.NbrCount(i, c), wantC)
			}
		}
	}
}

// TestMergeObservations checks the multi-crawl pooling helper: merging the
// star observations of independent walks must reproduce observing the
// concatenated sample, and the error paths must catch mismatched inputs.
func TestMergeObservations(t *testing.T) {
	g := testGraph(t)
	ws, err := Walks(randx.New(31), g, NewRW(20), 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]*Observation, len(ws))
	for i, w := range ws {
		if obs[i], err = ObserveStar(g, w); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeObservations(obs...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ObserveStar(g, Merge(ws...))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Draws != want.Draws || len(merged.Nodes) != len(want.Nodes) {
		t.Fatalf("merged draws/nodes = %d/%d, want %d/%d",
			merged.Draws, len(merged.Nodes), want.Draws, len(want.Nodes))
	}
	for i, v := range want.Nodes {
		if merged.Nodes[i] != v || merged.Mult[i] != want.Mult[i] ||
			merged.Weight[i] != want.Weight[i] || merged.Cat[i] != want.Cat[i] ||
			merged.Deg[i] != want.Deg[i] {
			t.Fatalf("distinct node %d differs: got (%d m=%g w=%g c=%d d=%g), want (%d m=%g w=%g c=%d d=%g)",
				i, merged.Nodes[i], merged.Mult[i], merged.Weight[i], merged.Cat[i], merged.Deg[i],
				v, want.Mult[i], want.Weight[i], want.Cat[i], want.Deg[i])
		}
	}
	// Inputs must be untouched (multiplicities not accumulated in place).
	if obs[0].Draws != 200 {
		t.Fatalf("merge modified its input: draws=%d", obs[0].Draws)
	}
	// Error paths: no inputs, induced inputs, mismatched partitions,
	// conflicting per-node constants.
	if _, err := MergeObservations(); err == nil {
		t.Fatal("expected error for empty input")
	}
	oi, err := ObserveInduced(g, ws[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeObservations(oi); err == nil {
		t.Fatal("expected error for induced observations")
	}
	if _, err := MergeObservations(obs[0], &Observation{K: 99, Star: true}); err == nil {
		t.Fatal("expected error for mismatched K")
	}
	// one builds a one-draw observation of the first walk's first node,
	// with the given category, weight and star data.
	one := func(cat int32, w, deg float64, nbrCat []int32, nbrCnt []float64) *Observation {
		return &Observation{K: g.NumCategories(), Star: true, Draws: 1,
			Nodes: []int32{obs[0].Nodes[0]}, Mult: []float64{1}, Weight: []float64{w}, Cat: []int32{cat},
			Deg: []float64{deg}, NbrOff: []int32{0, int32(len(nbrCat))}, NbrCat: nbrCat, NbrCnt: nbrCnt}
	}
	lo, hi := obs[0].NbrOff[0], obs[0].NbrOff[1]
	if hi == lo {
		t.Fatal("walk start unexpectedly has no categorized neighbors")
	}
	cat, w, deg := obs[0].Cat[0], obs[0].Weight[0], obs[0].Deg[0]
	nbrCat, nbrCnt := obs[0].NbrCat[lo:hi], obs[0].NbrCnt[lo:hi]
	fewer := append([]float64(nil), nbrCnt...)
	fewer[0]--
	for name, o := range map[string]*Observation{
		"category":        one((cat+1)%int32(g.NumCategories()), w, deg, nbrCat, nbrCnt),
		"weight":          one(cat, w+1, deg, nbrCat, nbrCnt),
		"neighbor counts": one(cat, w, deg, nbrCat, fewer),
		// A counts-derived degree no longer upgrades to an explicit one:
		// star data is a per-node constant, so it must be equal.
		"degree": one(cat, w, deg+1, nbrCat, nbrCnt),
	} {
		if _, err := MergeObservations(obs[0], o); err == nil {
			t.Fatalf("expected error for conflicting %s across crawls", name)
		}
	}
	if m, err := MergeObservations(obs[0], one(cat, w, deg, nbrCat, nbrCnt)); err != nil || m.Mult[0] != obs[0].Mult[0]+1 {
		t.Fatalf("merging equal star data: %v", err)
	}
	// Nil inputs are tolerated as no-ops (matching Sums.Merge); all-nil
	// still errors.
	m, err := MergeObservations(nil, obs[0], nil)
	if err != nil || m.Draws != obs[0].Draws {
		t.Fatalf("nil-tolerant merge: %v (draws %d)", err, m.Draws)
	}
	if _, err := MergeObservations(nil, nil); err == nil {
		t.Fatal("expected error merging only nil observations")
	}
}
