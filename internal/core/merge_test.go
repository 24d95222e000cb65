package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
)

// mergeTestGraph builds a small social graph whose long walks revisit nodes
// often, so merged walks share many distinct nodes (the hard case for
// multiplicity bookkeeping).
func mergeTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Social(randx.New(19), gen.SocialConfig{
		N: 500, MeanDeg: 10, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 6, CommZipf: 0.8, Mixing: 0.35, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPairWeightsMerge checks the entrywise pair-table merge and its
// partition guard.
func TestPairWeightsMerge(t *testing.T) {
	a := NewPairWeights(4)
	a.Set(0, 1, 2)
	a.Set(2, 3, 5)
	b := NewPairWeights(4)
	b.Set(1, 0, 3) // unordered: same pair as (0,1)
	b.Set(1, 3, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Get(0, 1); got != 5 {
		t.Fatalf("merged w(0,1) = %g, want 5", got)
	}
	if got := a.Get(2, 3); got != 5 {
		t.Fatalf("merged w(2,3) = %g, want 5", got)
	}
	if got := a.Get(1, 3); got != 7 {
		t.Fatalf("merged w(1,3) = %g, want 7", got)
	}
	if b.Get(0, 1) != 3 || b.Len() != 2 {
		t.Fatal("merge modified its argument")
	}
	if err := a.Merge(NewPairWeights(3)); err == nil {
		t.Fatal("expected error merging mismatched partitions")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge should be a no-op, got %v", err)
	}
}

// TestSumsMergeMatchesPooledStar is the acceptance-criteria property: the
// Hansen–Hurwitz sums of independently observed walks, merged with
// Sums.Merge, must reproduce the pooled batch estimate (sizes, weights,
// within-densities) to ≤ 1e-9 relative error — the paper's Table 2
// workflow, where dozens of independent crawls feed one estimate.
func TestSumsMergeMatchesPooledStar(t *testing.T) {
	g := mergeTestGraph(t)
	N := float64(g.N())
	const walks, perWalk = 5, 1500
	ws, err := sample.Walks(randx.New(23), g, sample.NewRW(100), walks, perWalk)
	if err != nil {
		t.Fatal(err)
	}
	// Each walk is observed independently (its own crawler), then the sums
	// are merged.
	merged := NewSums(g.NumCategories(), true)
	for _, w := range ws {
		o, err := sample.ObserveStar(g, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(SumsFromObservation(o)); err != nil {
			t.Fatal(err)
		}
	}
	// The pooled reference observes the concatenated sample in one go.
	pooled, err := sample.ObserveStar(g, sample.Merge(ws...))
	if err != nil {
		t.Fatal(err)
	}
	want := SumsFromObservation(pooled)
	if merged.Draws != want.Draws {
		t.Fatalf("merged draws %g, want %g", merged.Draws, want.Draws)
	}
	got, err := merged.Estimate(Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.Estimate(Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	for c := range ref.Sizes {
		if d := math.Abs(got.Sizes[c]-ref.Sizes[c]) / math.Max(1, math.Abs(ref.Sizes[c])); d > 1e-9 {
			t.Fatalf("size[%d]: merged %g vs pooled %g (rel %g)", c, got.Sizes[c], ref.Sizes[c], d)
		}
	}
	ref.Weights.ForEach(func(a, b int32, w float64) {
		if math.IsNaN(w) && math.IsNaN(got.Weights.Get(a, b)) {
			return
		}
		if d := math.Abs(got.Weights.Get(a, b) - w); d > 1e-9 {
			t.Fatalf("w(%d,%d): merged %g vs pooled %g", a, b, got.Weights.Get(a, b), w)
		}
	})
	gotWithin, err := merged.WithinWeightsStar(got.Sizes)
	if err != nil {
		t.Fatal(err)
	}
	refWithin, err := want.WithinWeightsStar(ref.Sizes)
	if err != nil {
		t.Fatal(err)
	}
	for c := range refWithin {
		if d := math.Abs(gotWithin[c] - refWithin[c]); d > 1e-9 {
			t.Fatalf("within[%d]: merged %g vs pooled %g", c, gotWithin[c], refWithin[c])
		}
	}
}

// TestSumsMergeInducedDisjoint checks the documented induced contract: sums
// over disjoint node sets compose exactly (a hash partition never splits a
// node), verified against observing the concatenated crawl.
func TestSumsMergeInducedDisjoint(t *testing.T) {
	g := fig1(t)
	// Two crawls over disjoint, non-adjacent node sets ({7,8} and {3,4}:
	// fig1 has no edge between them), each observed by its own independent
	// crawler. The pooled reference observes the concatenated crawl.
	crawlLeft := []int32{7, 8, 7}
	crawlRight := []int32{3, 4, 4}
	observe := func(crawls ...[]int32) *sample.Observation {
		o, err := sample.ObserveInduced(g, &sample.Sample{Nodes: slices.Concat(crawls...)})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	merged := SumsFromObservation(observe(crawlLeft))
	if err := merged.Merge(SumsFromObservation(observe(crawlRight))); err != nil {
		t.Fatal(err)
	}
	want := SumsFromObservation(observe(crawlLeft, crawlRight))
	gw, err := merged.WeightsInduced()
	if err != nil {
		t.Fatal(err)
	}
	ww, err := want.WeightsInduced()
	if err != nil {
		t.Fatal(err)
	}
	ww.ForEach(func(a, b int32, w float64) {
		if d := math.Abs(gw.Get(a, b) - w); d > 1e-12 {
			t.Fatalf("disjoint induced merge: w(%d,%d) = %g, want %g", a, b, gw.Get(a, b), w)
		}
	})
	gwi, err := merged.WithinWeightsInduced()
	if err != nil {
		t.Fatal(err)
	}
	wwi, err := want.WithinWeightsInduced()
	if err != nil {
		t.Fatal(err)
	}
	for c := range wwi {
		if d := math.Abs(gwi[c] - wwi[c]); d > 1e-12 {
			t.Fatalf("disjoint induced merge: within[%d] = %g, want %g", c, gwi[c], wwi[c])
		}
	}
}

// TestSumsMergeMismatch checks the partition/scenario guards.
func TestSumsMergeMismatch(t *testing.T) {
	if err := NewSums(3, true).Merge(NewSums(4, true)); err == nil {
		t.Fatal("expected error merging different K")
	}
	if err := NewSums(3, true).Merge(NewSums(3, false)); err == nil {
		t.Fatal("expected error merging induced into star")
	}
	if err := NewSums(3, false).Merge(NewSums(3, true)); err == nil {
		t.Fatal("expected error merging star into induced")
	}
	if err := NewSums(3, true).Merge(nil); err != nil {
		t.Fatalf("nil merge should be a no-op, got %v", err)
	}
}
