package stream

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// bootMaxDiff returns the largest relative difference between two replicate
// grids (per estimand, per replicate), treating NaN = NaN as equal.
func bootMaxDiff(a, b [][]float64) float64 {
	var m float64
	for c := range a {
		if d := maxRelDiff(a[c], b[c]); d > m {
			m = d
		}
	}
	return m
}

// compareBoot fails unless two replicate snapshots agree within tol
// relative (maxRelDiff): the replicate size, within and population vectors
// and every pair's replicate weight vector, a pair carrying a vector in
// both snapshots or in neither. Two nil snapshots agree.
func compareBoot(t *testing.T, what string, got, want *uncert.BootSnapshot, tol float64) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: bootstrap presence %v, reference %v", what, got != nil, want != nil)
		}
		return
	}
	if d := bootMaxDiff(got.Sizes, want.Sizes); d > tol {
		t.Fatalf("%s: replicate sizes differ by %g", what, d)
	}
	if d := bootMaxDiff(got.Within, want.Within); d > tol {
		t.Fatalf("%s: replicate within differ by %g", what, d)
	}
	if d := maxRelDiff(got.Pop, want.Pop); d > tol {
		t.Fatalf("%s: replicate pop estimates differ by %g", what, d)
	}
	for a := int32(0); int(a) < want.K; a++ {
		for b := a + 1; int(b) < want.K; b++ {
			g, w := got.WeightReplicates(a, b), want.WeightReplicates(a, b)
			if (g == nil) != (w == nil) {
				t.Fatalf("%s: pair (%d,%d) weighted %v, reference %v", what, a, b, g != nil, w != nil)
			}
			if d := maxRelDiff(g, w); d > tol {
				t.Fatalf("%s: pair (%d,%d) replicate weights differ by %g", what, a, b, d)
			}
		}
	}
}

// TestStreamingBootstrapMatchesOffline pins the streaming replicate path to
// the offline one: ingesting a star stream record by record must produce,
// replicate for replicate, the same estimates as rebuilding the replicate
// sums from the equivalent batch observation (identical Poisson weights,
// different accumulation order → ≤ 1e-9 relative difference).
func TestStreamingBootstrapMatchesOffline(t *testing.T) {
	for _, star := range []bool{true, false} {
		g := testGraph(t)
		s, err := sample.NewRW(100).Sample(randx.New(61), g, 3000)
		if err != nil {
			t.Fatal(err)
		}
		so, err := sample.NewStreamObserver(g, star)
		if err != nil {
			t.Fatal(err)
		}
		bc := uncert.Config{B: 25, Seed: 5}
		acc, err := NewAccumulator(Config{
			K: g.NumCategories(), Star: star, N: float64(g.N()), Replicates: bc,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range s.Nodes {
			if err := acc.Ingest(so.Observe(v, s.Weight(i))); err != nil {
				t.Fatal(err)
			}
		}
		observe := sample.ObserveInduced
		if star {
			observe = sample.ObserveStar
		}
		obs, err := observe(g, s)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Boot == nil || snap.Boot.B != bc.B {
			t.Fatalf("star=%v: snapshot carries no bootstrap (%+v)", star, snap.Boot)
		}
		offReps, err := uncert.ReplicatesFromObservation(obs, bc)
		if err != nil {
			t.Fatal(err)
		}
		off := offReps.Snapshot(core.Options{N: float64(g.N())})
		if d := bootMaxDiff(snap.Boot.Sizes, off.Sizes); d > 1e-9 {
			t.Fatalf("star=%v: replicate sizes differ by %g", star, d)
		}
		if d := bootMaxDiff(snap.Boot.Within, off.Within); d > 1e-9 {
			t.Fatalf("star=%v: replicate within differ by %g", star, d)
		}
		if d := maxRelDiff(snap.Boot.Pop, off.Pop); d > 1e-9 {
			t.Fatalf("star=%v: replicate pop estimates differ by %g", star, d)
		}
		for c := 0; c < g.NumCategories(); c++ {
			a, b := snap.Boot.SizeCI(c, 0.95), off.SizeCI(c, 0.95)
			if math.Abs(a.Lo-b.Lo) > 1e-6 || math.Abs(a.Hi-b.Hi) > 1e-6 {
				t.Fatalf("star=%v: CI mismatch for category %d: %+v vs %+v", star, c, a, b)
			}
		}
	}
}

// TestBootstrapOffByDefault checks that accumulators without a Replicates
// config behave exactly as before: no Boot on snapshots, no extra work.
func TestBootstrapOffByDefault(t *testing.T) {
	g := testGraph(t)
	acc, err := NewAccumulator(Config{K: g.NumCategories(), Star: true})
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(so.Observe(0, 1)); err != nil {
		t.Fatal(err)
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Boot != nil {
		t.Fatal("bootstrap must be off by default")
	}
	if _, err := NewAccumulator(Config{K: 2, Star: true, Replicates: uncert.Config{B: -1}}); err == nil {
		t.Fatal("negative replicate count must be rejected")
	}
}

// TestBootstrapLateStarBackfill checks that star data arriving only on a
// later draw of a node is backfilled into the replicate sums exactly as into
// the primary sums: the final replicate estimates must match a stream that
// carried the star data upfront.
func TestBootstrapLateStarBackfill(t *testing.T) {
	cfg := Config{K: 2, Star: true, N: 10, Replicates: uncert.Config{B: 16, Seed: 9}}
	early, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	late, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := sample.NodeObservation{Node: 4, Cat: 0, Deg: 3, NbrCat: []int32{0, 1}, NbrCnt: []float64{1, 2}}
	bare := sample.NodeObservation{Node: 4, Cat: 0}
	other := sample.NodeObservation{Node: 9, Cat: 1, Deg: 1, NbrCat: []int32{0}, NbrCnt: []float64{1}}
	// Early: star data on the first draw. Late: two bare draws first.
	for _, rec := range []sample.NodeObservation{full, bare, bare, other} {
		if err := early.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []sample.NodeObservation{bare, bare, full, other} {
		if err := late.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	a, err := early.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := late.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := bootMaxDiff(a.Boot.Sizes, b.Boot.Sizes); d > 1e-12 {
		t.Fatalf("late star backfill: replicate sizes differ by %g", d)
	}
	if d := bootMaxDiff(a.Boot.Within, b.Boot.Within); d > 1e-12 {
		t.Fatalf("late star backfill: replicate within differ by %g", d)
	}
}
