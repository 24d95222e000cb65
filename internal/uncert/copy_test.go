package uncert

import (
	"testing"
)

// TestCopyFromMatchesClone pins the two-phase export's locked half to the
// reference deep copy, a Merge into a fresh instance: CopyFrom into a fresh
// shell must reproduce exactly the state that merge builds, including pair
// vectors and dirty tracking.
func TestCopyFromMatchesClone(t *testing.T) {
	const k, B = 6, 40
	src, err := NewReplicates(k, true, Config{B: B, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := NewReplicateFold(k)
	for i := int32(0); i < 200; i++ {
		c := i % k
		f.AddDraws(i, c, 1, 1, float64(i%3))
		f.AddStar(i, c, 1, 1, 4, []int32{(c + 1) % k, (c + 2) % k}, []float64{2, 1})
	}
	f.Fold(src)

	clone := func() *Replicates {
		t.Helper()
		cp, err := NewReplicates(k, true, Config{B: B, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Merge(src); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	want := clone()
	got, err := NewReplicates(k, true, Config{B: B, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got.ReservePairs(src.PairCount())
	if err := got.CopyFrom(src); err != nil {
		t.Fatal(err)
	}

	w, g := want.Raw(), got.Raw()
	vecs := [][2][]float64{
		{w.Draws, g.Draws}, {w.TotalRew, g.TotalRew}, {w.RewSq, g.RewSq},
		{w.Psi1, g.Psi1}, {w.PsiInv, g.PsiInv}, {w.Coll, g.Coll},
		{w.DegNum, g.DegNum}, {w.Rew, g.Rew}, {w.DrawsA, g.DrawsA},
		{w.Rew2, g.Rew2}, {w.RewSqA, g.RewSqA}, {w.WithinNum, g.WithinNum},
		{w.DegNumA, g.DegNumA}, {w.NbrNum, g.NbrNum},
	}
	for i, v := range vecs {
		if len(v[0]) != len(v[1]) {
			t.Fatalf("vector %d: length %d vs %d", i, len(v[0]), len(v[1]))
		}
		for j := range v[0] {
			if v[0][j] != v[1][j] {
				t.Fatalf("vector %d entry %d: %g vs %g", i, j, v[0][j], v[1][j])
			}
		}
	}
	if len(w.Pairs) != len(g.Pairs) {
		t.Fatalf("pair count %d vs %d", len(w.Pairs), len(g.Pairs))
	}
	for key, wv := range w.Pairs {
		gv, ok := g.Pairs[key]
		if !ok {
			t.Fatalf("pair %v missing from copy", key)
		}
		for b := range wv {
			if wv[b] != gv[b] {
				t.Fatalf("pair %v replicate %d: %g vs %g", key, b, wv[b], gv[b])
			}
		}
	}

	// A second CopyFrom over a now-stale destination must still match
	// (existing vectors reused, extra pairs zeroed).
	f.AddStar(999, 0, 1, 1, 2, []int32{3}, []float64{2})
	f.Fold(src)
	if err := got.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	w2, g2 := clone().Raw(), got.Raw()
	for key, wv := range w2.Pairs {
		gv := g2.Pairs[key]
		for b := range wv {
			if wv[b] != gv[b] {
				t.Fatalf("after growth: pair %v replicate %d: %g vs %g", key, b, wv[b], gv[b])
			}
		}
	}
}
