package stream

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sample"
	"repro/internal/uncert"
)

// fullObs builds the i-th record of a deterministic star stream with node
// re-draws (node = i mod 37), per-node constant weights and star data, and a
// star-less record every third draw so restores must preserve the late-star
// backfill state (starSeen) too.
func fullObs(i int) sample.NodeObservation {
	node := int32(i % 37)
	c := node % 5
	obs := sample.NodeObservation{
		Node:   node,
		Cat:    c,
		Weight: 1 + float64(node%7)/4,
	}
	if i%3 != 0 {
		obs.Deg = float64(3 + node%9)
		obs.NbrCat = []int32{(c + 1) % 5, (c + 3) % 5}
		obs.NbrCnt = []float64{2, 1}
	}
	return obs
}

func mustIngest(t *testing.T, acc Ingester, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := ingestOne(acc, fullObs(i)); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

// requireFullEqual pins two full states to each other: scalars, sums,
// replicate grids, and the node directory. With tol == 0 the comparison is
// bit-exact (same accumulator design on both sides runs identical float
// operations in identical order); cross-design comparisons pass a tolerance,
// since the epoch merge sums star mass in a different order than the
// single-lock per-record path (the documented ≤ 1e-9 agreement).
func requireFullEqual(t *testing.T, want, got *FullState, tol float64) {
	t.Helper()
	close := func(a, b float64) bool {
		if a == b {
			return true
		}
		return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	closeVec := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if !close(a[i], b[i]) {
				t.Fatalf("%s[%d] diverged: %g vs %g", name, i, a[i], b[i])
			}
		}
	}
	w, g := want.State, got.State
	if w.Gen != g.Gen || w.Distinct != g.Distinct {
		t.Fatalf("cut mismatch: gen %d vs %d, distinct %d vs %d", w.Gen, g.Gen, w.Distinct, g.Distinct)
	}
	if !close(w.Psi1, g.Psi1) || !close(w.PsiInv, g.PsiInv) || !close(w.Collisions, g.Collisions) {
		t.Fatalf("collision scalars diverged: (%g,%g,%g) vs (%g,%g,%g)",
			w.Psi1, w.PsiInv, w.Collisions, g.Psi1, g.PsiInv, g.Collisions)
	}
	if tol == 0 {
		if !reflect.DeepEqual(w.Sums, g.Sums) {
			t.Fatalf("sums diverged:\nwant %+v\ngot  %+v", w.Sums, g.Sums)
		}
	} else {
		if !close(w.Sums.Draws, g.Sums.Draws) || !close(w.Sums.TotalRew, g.Sums.TotalRew) ||
			!close(w.Sums.RewSq, g.Sums.RewSq) || !close(w.Sums.DegNum, g.Sums.DegNum) {
			t.Fatalf("sums scalars diverged")
		}
		closeVec("Rew", w.Sums.Rew, g.Sums.Rew)
		closeVec("DrawsA", w.Sums.DrawsA, g.Sums.DrawsA)
		closeVec("Rew2", w.Sums.Rew2, g.Sums.Rew2)
		closeVec("RewSqA", w.Sums.RewSqA, g.Sums.RewSqA)
		closeVec("DegNumA", w.Sums.DegNumA, g.Sums.DegNumA)
		closeVec("NbrNum", w.Sums.NbrNum, g.Sums.NbrNum)
		closeVec("WithinNum", w.Sums.WithinNum, g.Sums.WithinNum)
		if w.Sums.PairNum.Len() != g.Sums.PairNum.Len() {
			t.Fatalf("pair table size %d vs %d", w.Sums.PairNum.Len(), g.Sums.PairNum.Len())
		}
		w.Sums.PairNum.ForEach(func(a, b int32, wv float64) {
			if !close(wv, g.Sums.PairNum.Get(a, b)) {
				t.Fatalf("pair (%d,%d) diverged: %g vs %g", a, b, wv, g.Sums.PairNum.Get(a, b))
			}
		})
	}
	if (w.Reps == nil) != (g.Reps == nil) {
		t.Fatalf("replicates presence mismatch")
	}
	if w.Reps != nil {
		rw, rg := w.Reps.Raw(), g.Reps.Raw()
		vecs := [][2][]float64{
			{rw.Draws, rg.Draws}, {rw.TotalRew, rg.TotalRew}, {rw.RewSq, rg.RewSq},
			{rw.Psi1, rg.Psi1}, {rw.PsiInv, rg.PsiInv}, {rw.Coll, rg.Coll},
			{rw.DegNum, rg.DegNum}, {rw.Rew, rg.Rew}, {rw.DrawsA, rg.DrawsA},
			{rw.Rew2, rg.Rew2}, {rw.RewSqA, rg.RewSqA}, {rw.WithinNum, rg.WithinNum},
			{rw.DegNumA, rg.DegNumA}, {rw.NbrNum, rg.NbrNum},
		}
		for i, v := range vecs {
			closeVec(fmt.Sprintf("replicate vector %d", i), v[0], v[1])
		}
		if len(rw.Pairs) != len(rg.Pairs) {
			t.Fatalf("replicate pair count %d vs %d", len(rw.Pairs), len(rg.Pairs))
		}
		for key, wv := range rw.Pairs {
			closeVec(fmt.Sprintf("replicate pair %v", key), wv, rg.Pairs[key])
		}
	}
	if tol == 0 {
		if !reflect.DeepEqual(want.Nodes, got.Nodes) {
			t.Fatalf("node directory diverged:\nwant %+v\ngot  %+v", want.Nodes, got.Nodes)
		}
		return
	}
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("directory size %d vs %d", len(want.Nodes), len(got.Nodes))
	}
	for i := range want.Nodes {
		wn, gn := &want.Nodes[i], &got.Nodes[i]
		if wn.Node != gn.Node || wn.Cat != gn.Cat || wn.Mult != gn.Mult ||
			wn.Weight != gn.Weight || wn.StarSeen != gn.StarSeen || !close(wn.Deg, gn.Deg) {
			t.Fatalf("node record %d diverged:\nwant %+v\ngot  %+v", i, *wn, *gn)
		}
	}
}

// TestRestoreResumeExactness is the restart-resume invariant behind durable
// checkpointing: export mid-stream, restore into a fresh accumulator,
// continue ingesting the identical tail — and every estimate matches an
// uninterrupted run to ≤ 1e-9 (the state comparison is in fact bit-exact).
// The tail re-draws nodes from the head, so the restored node directory is
// load-bearing: collisions, re-draw validation and star backfill all depend
// on it. "cross" restores a single-lock export into an epoch-merged
// accumulator — the two designs share one resumable state.
func TestRestoreResumeExactness(t *testing.T) {
	const cut, end = 120, 240
	cfg := Config{K: 5, Star: true, N: 500, Replicates: uncert.Config{B: 32, Seed: 11}}
	build := func(mode string) Ingester {
		t.Helper()
		var acc Ingester
		var err error
		if mode == "epoch" {
			acc, err = NewEpochAccumulator(cfg, 16)
		} else {
			acc, err = NewAccumulator(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	restore := func(mode string, fs *FullState) Ingester {
		t.Helper()
		var acc Ingester
		var err error
		if mode == "epoch" {
			acc, err = RestoreEpochAccumulator(cfg, 16, fs)
		} else {
			acc, err = RestoreAccumulator(cfg, fs)
		}
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	for _, tc := range []struct {
		name, from, to string
		tol            float64
	}{
		{"single", "single", "single", 0},
		{"epoch", "epoch", "epoch", 0},
		{"cross", "single", "epoch", 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			uninterrupted := build(tc.to)
			mustIngest(t, uninterrupted, 0, end)

			head := build(tc.from)
			mustIngest(t, head, 0, cut)
			fs, err := head.(FullExporter).ExportFull()
			if err != nil {
				t.Fatal(err)
			}
			// Poison the donor: the restored accumulator must share no
			// mutable state with the export.
			mustIngest(t, head, 0, 30)

			tail := restore(tc.to, fs)
			if tail.Gen() != uint64(cut) || tail.Distinct() != 37 {
				t.Fatalf("restored at gen %d, %d distinct; want %d, 37", tail.Gen(), tail.Distinct(), cut)
			}
			mustIngest(t, tail, cut, end)

			wantFS, err := uninterrupted.(FullExporter).ExportFull()
			if err != nil {
				t.Fatal(err)
			}
			gotFS, err := tail.(FullExporter).ExportFull()
			if err != nil {
				t.Fatal(err)
			}
			requireFullEqual(t, wantFS, gotFS, tc.tol)

			want, err := uninterrupted.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tail.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Result.Sizes {
				if d := math.Abs(want.Result.Sizes[i] - got.Result.Sizes[i]); d > 1e-9 {
					t.Fatalf("size[%d] off by %g after resume", i, d)
				}
			}
			if math.Abs(want.PopEstimate-got.PopEstimate) > 1e-9 {
				t.Fatalf("population estimate off: %g vs %g", want.PopEstimate, got.PopEstimate)
			}
			if want.Boot == nil || got.Boot == nil {
				t.Fatal("bootstrap snapshot missing after resume")
			}
		})
	}
}

// TestRestoreInducedPeers pins the induced-scenario half of the directory:
// after a restore, re-observing an edge the exported accumulator had already
// counted must not add its mass again.
func TestRestoreInducedPeers(t *testing.T) {
	cfg := Config{K: 2, Star: false, N: 10}
	ref, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := []sample.NodeObservation{
		{Node: 1, Cat: 0},
		{Node: 2, Cat: 1, Peers: []int32{1}},
		{Node: 1, Cat: 0, Peers: []int32{2}}, // same edge, other endpoint
		{Node: 3, Cat: 1, Peers: []int32{1, 2}},
	}
	for _, r := range recs[:2] {
		if err := ref.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := ref.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreAccumulator(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[2:] {
		if err := ref.Ingest(r); err != nil {
			t.Fatal(err)
		}
		if err := got.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	wantFS, err := ref.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	gotFS, err := got.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	requireFullEqual(t, wantFS, gotFS, 0)
}

// TestRestoreValidation exercises the identity checks: a FullState only
// restores under a configuration matching its partition, scenario and
// bootstrap shape, with a directory consistent with its scalars.
func TestRestoreValidation(t *testing.T) {
	cfg := Config{K: 5, Star: true, Replicates: uncert.Config{B: 8, Seed: 1}}
	acc, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, acc, 0, 20)
	fs, err := acc.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Config{
		"k":         {K: 6, Star: true, Replicates: cfg.Replicates},
		"star":      {K: 5, Star: false, Replicates: cfg.Replicates},
		"reps-off":  {K: 5, Star: true},
		"reps-seed": {K: 5, Star: true, Replicates: uncert.Config{B: 8, Seed: 2}},
	} {
		if _, err := RestoreAccumulator(bad, fs); err == nil {
			t.Errorf("%s: restore accepted a mismatched config", name)
		}
	}
	fs.State.Distinct++
	if _, err := RestoreAccumulator(cfg, fs); err == nil {
		t.Error("restore accepted distinct ≠ len(nodes)")
	}
	fs.State.Distinct--
	fs.Nodes[1] = fs.Nodes[0]
	fs.State.Distinct = int64(len(fs.Nodes))
	if _, err := RestoreAccumulator(cfg, fs); err == nil {
		t.Error("restore accepted a duplicate node record")
	}
	restoreInducedPeerCases(t)
}

// restoreInducedPeerCases feeds RestoreAccumulator induced peer lists that
// do not form a simple undirected graph on the restored nodes. Each one
// must be rejected with an error naming the node, and a valid list must
// still restore into an accumulator that takes a re-draw of every node.
func restoreInducedPeerCases(t *testing.T) {
	cfg := Config{K: 2, Star: false, Replicates: uncert.Config{B: 8, Seed: 4}}
	acc, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []sample.NodeObservation{
		{Node: 1, Cat: 0},
		{Node: 2, Cat: 1, Peers: []int32{1}},
		{Node: 3, Cat: 1, Peers: []int32{1, 2}},
	} {
		if err := acc.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := acc.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	// withPeers returns a copy of fs whose node id has the given peers.
	withPeers := func(id int32, peers ...int32) *FullState {
		nodes := make([]NodeRecord, len(fs.Nodes))
		for i, nr := range fs.Nodes {
			nodes[i] = nr
			nodes[i].Peers = append([]int32(nil), nr.Peers...)
			if nr.Node == id {
				nodes[i].Peers = peers
			}
		}
		return &FullState{State: fs.State, Nodes: nodes}
	}
	for _, tc := range []struct {
		name, want string
		fs         *FullState
	}{
		{"unknown", "node 2 lists peer 99", withPeers(2, 1, 3, 99)},
		{"self", "node 2 lists itself", withPeers(2, 1, 3, 2)},
		{"duplicate", "node 3 lists peer 1 twice", withPeers(3, 1, 2, 1)},
		{"asymmetric", "node 3 lists peer 1, which does not list it back", withPeers(1, 2)},
	} {
		t.Run("peers-"+tc.name, func(t *testing.T) {
			_, err := RestoreAccumulator(cfg, tc.fs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("restore error %v, want one containing %q", err, tc.want)
			}
		})
	}
	got, err := RestoreAccumulator(cfg, withPeers(2, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, nr := range fs.Nodes {
		if err := got.Ingest(sample.NodeObservation{Node: nr.Node, Cat: nr.Cat}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExportFullDuringConcurrentFlushes runs ExportFull against concurrent
// Local flushes: every cut must be internally consistent — the directory's
// total multiplicity equal to the published draw count, distinct equal to
// the directory size — which is exactly what the flush gate guarantees.
func TestExportFullDuringConcurrentFlushes(t *testing.T) {
	cfg := Config{K: 5, Star: true, Replicates: uncert.Config{B: 8, Seed: 3}}
	ea, err := NewEpochAccumulator(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 600
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := ea.NewLocal()
			defer l.Flush()
			for i := 0; i < perWriter; i++ {
				if err := l.Ingest(fullObs(i)); err != nil {
					panic(fmt.Sprintf("writer %d record %d: %v", w, i, err))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		fs, err := ea.ExportFull()
		if err != nil {
			t.Fatal(err)
		}
		var mult float64
		for i := range fs.Nodes {
			mult += fs.Nodes[i].Mult
		}
		if mult != fs.State.Sums.Draws {
			t.Fatalf("inconsistent cut: directory multiplicity %g, published draws %g", mult, fs.State.Sums.Draws)
		}
		if int64(len(fs.Nodes)) != fs.State.Distinct {
			t.Fatalf("inconsistent cut: %d directory nodes, distinct %d", len(fs.Nodes), fs.State.Distinct)
		}
		select {
		case <-done:
			if got := fs.State.Gen; got == uint64(writers*perWriter) {
				return
			}
		default:
		}
	}
}
