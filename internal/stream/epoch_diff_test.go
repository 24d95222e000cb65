package stream

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// diffTruth is one node's ground truth in the differential test: the
// constants every record must agree on and the full star data, of which
// each consistent record reveals a subset.
type diffTruth struct {
	cat    int32
	weight float64
	deg    float64
	nbrCat []int32
	nbrCnt []float64
}

func randomDiffTruth(r *rand.Rand, k, n int) []diffTruth {
	out := make([]diffTruth, n)
	for v := range out {
		tr := &out[v]
		tr.cat = int32(r.IntN(k+1)) - 1 // -1: uncategorized
		tr.weight = 1
		if r.IntN(2) == 0 {
			tr.weight = []float64{0.5, 2, 3.5}[r.IntN(3)]
		}
		deg := 1 + r.IntN(8)
		tr.deg = float64(deg)
		// Categorized neighbors cover the whole degree for a third of the
		// nodes (counts sum = degree) and part of it for the rest.
		left := deg
		if r.IntN(3) > 0 {
			left = r.IntN(deg + 1)
		}
		for c := 0; c < k && left > 0; c++ {
			if r.IntN(2) == 0 {
				continue
			}
			x := 1 + r.IntN(left)
			tr.nbrCat = append(tr.nbrCat, int32(c))
			tr.nbrCnt = append(tr.nbrCnt, float64(x))
			left -= x
		}
	}
	return out
}

// TestEpochDifferentialOracle is the randomized differential test of the
// epoch path: 2–3 Locals over one EpochAccumulator, with interleaved
// flushes, against one single-lock Accumulator fed the same records in
// ingest order. Records are bare, full star, counts-only or degree-only
// (so late-star backfill and degree retrofits cross Locals and epochs), and
// some deviate from the node's truth in category, weight or counts.
//
// The generator avoids only the races whose outcome the epoch design
// leaves to flush order: a deviation is sent to a Local only when the
// node's history it must contradict is visible to that Local, or when the
// Local holds none of the node's records and the history is hidden solely
// in other Locals' unflushed epochs — which the harness then flushes first,
// so first-writer-wins matches the reference's order. Every record
// must then get the same decision on both sides: rejected by Local.Ingest
// exactly when the reference rejects it, or else accepted and dropped at
// its flush as a flush_conflict. Flushed snapshots must agree to ≤ 1e-9,
// their bootstrap replicates included, with each other and with the
// node-table oracle.
func TestEpochDifferentialOracle(t *testing.T) {
	const k, n = 4, 24
	var tally struct {
		rejected, dropped     [3]int // by deviation kind: category, weight, counts
		backfills, retrofits  int
		records, compared     int
		flushConflictExpected int
	}
	conflicts0 := mRejected.With("flush_conflict").Value()
	for run := uint64(0); run < 64; run++ {
		// Each of the 32 streams runs twice: without replicates, and with
		// B = 16, whose replicate backfills, retrofits and flush conflicts
		// must match the reference's too.
		seed, B := run%32+1, 16*int(run/32)
		r := randx.New(seed)
		truth := randomDiffTruth(r, k, n)
		cfg := Config{K: k, Star: true, N: 1000, Replicates: uncert.Config{B: B, Seed: seed}}
		ref, err := NewAccumulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ea, err := NewEpochAccumulator(cfg, 1<<20) // flushes are the test's, never automatic
		if err != nil {
			t.Fatal(err)
		}
		locals := make([]*Local, 2+int(seed%2))
		pending := make([][]int, len(locals)) // records of node v accepted into local i's epoch
		blocked := make([][]bool, len(locals))
		expectDrop := make([]int, len(locals))
		for i := range locals {
			locals[i] = ea.NewLocal()
			pending[i] = make([]int, n)
			blocked[i] = make([]bool, n)
		}
		published := make([]bool, n) // a flush applied a record of v
		history := make([]bool, n)   // the reference accepted a record of v
		pinned := make([]bool, n)    // the reference accepted counts for v

		flush := func(i int) {
			l := locals[i]
			// White-box coverage: classify the star data this epoch
			// brings against the directory before it publishes.
			for j := range l.nodes {
				ln := &l.nodes[j]
				if !ln.own.seen || blocked[i][ln.node] {
					continue
				}
				var mult float64
				var view starData
				if e, ok := ea.dir.lookup(ln.node); ok {
					mult, view = ea.dir.at(e.idx).mult, ea.starView(e.idx)
				}
				switch {
				case mult == 0:
				case !view.seen:
					tally.backfills++
				case ln.own.deg != view.deg || len(ln.own.nbrCat) != len(view.nbrCat):
					tally.retrofits++
				}
			}
			_, dropped := l.Flush()
			if dropped != expectDrop[i] {
				t.Fatalf("seed %d: local %d flush dropped %d records, want %d", seed, i, dropped, expectDrop[i])
			}
			for v := range pending[i] {
				if pending[i][v] > 0 && !blocked[i][v] {
					published[v] = true
				}
				pending[i][v] = 0
				blocked[i][v] = false
			}
			expectDrop[i] = 0
		}
		// readsDirectory reports whether local i validates node v's star
		// data against the directory's current view — v is in its epoch
		// without star data of its own — and the directory holds v's whole
		// history, no other local having v pending.
		readsDirectory := func(i int, v int32) bool {
			pos, ok := locals[i].epoch.find(v, hashID(v, ea.dir.seed))
			if !ok || locals[i].nodes[pos].own.seen {
				return false
			}
			for j := range locals {
				if j != i && pending[j][v] > 0 {
					return false
				}
			}
			return true
		}
		compare := func() {
			for i := range locals {
				flush(i)
			}
			want, err := ref.Snapshot()
			if err != nil {
				return // nothing accepted yet
			}
			got, err := ea.Snapshot()
			if err != nil {
				t.Fatalf("seed %d: epoch snapshot: %v", seed, err)
			}
			if got.Draws != want.Draws || got.Distinct != want.Distinct {
				t.Fatalf("seed %d: epoch draws/distinct %d/%d, reference %d/%d", seed, got.Draws, got.Distinct, want.Draws, want.Distinct)
			}
			if d := maxRelDiff(got.Result.Sizes, want.Result.Sizes); d > 1e-9 {
				t.Fatalf("seed %d: size mismatch %g", seed, d)
			}
			if d := weightsMaxDiff(got.Result.Weights, want.Result.Weights); d > 1e-9 {
				t.Fatalf("seed %d: weight mismatch %g", seed, d)
			}
			if d := maxRelDiff(got.Within, want.Within); d > 1e-9 {
				t.Fatalf("seed %d: within mismatch %g", seed, d)
			}
			if d := maxRelDiff([]float64{got.PopEstimate}, []float64{want.PopEstimate}); d > 1e-9 {
				t.Fatalf("seed %d: population estimate %g, reference %g", seed, got.PopEstimate, want.PopEstimate)
			}
			what := fmt.Sprintf("seed %d B=%d", seed, B)
			compareBoot(t, what, got.Boot, want.Boot, 1e-9)
			checkOracle(t, what+" epoch", ea, 1e-9)
			checkOracle(t, what+" single-lock", ref, 1e-9)
			tally.compared++
		}

		for round := 0; round < 3000; round++ {
			if r.IntN(12) == 0 {
				flush(r.IntN(len(locals)))
			}
			if round%500 == 499 {
				compare()
			}
			i := r.IntN(len(locals))
			v := int32(r.IntN(n))
			if blocked[i][v] {
				continue
			}
			tr := &truth[v]
			rec := sample.NodeObservation{Node: v, Cat: tr.cat, Weight: tr.weight}
			switch r.IntN(4) {
			case 1: // full star data
				rec.Deg, rec.NbrCat, rec.NbrCnt = tr.deg, slices.Clone(tr.nbrCat), slices.Clone(tr.nbrCnt)
			case 2: // counts only: the degree is derived from the counts
				rec.NbrCat, rec.NbrCnt = slices.Clone(tr.nbrCat), slices.Clone(tr.nbrCnt)
			case 3: // degree only
				rec.Deg = tr.deg
			}
			// A wildcard weight inherits the node's recorded weight, so it
			// is sent only where this local can know that weight.
			if r.IntN(3) == 0 && (tr.weight == 1 || pending[i][v] > 0 || published[v]) {
				rec.Weight = 0
			}
			deviation := -1
			if r.IntN(7) == 0 {
				switch d := r.IntN(3); {
				case d < 2 && history[v]:
					deviation = d
				case d == 2 && pinned[v] && (pending[i][v] == 0 || readsDirectory(i, v)):
					deviation = d
				}
			}
			switch deviation {
			case 0:
				rec.Cat = int32((int(tr.cat)+2+r.IntN(k))%(k+1)) - 1
			case 1:
				rec.Weight = tr.weight + 0.25
			case 2:
				rec.Deg, rec.NbrCat, rec.NbrCnt = 0, slices.Clone(tr.nbrCat), slices.Clone(tr.nbrCnt)
				rec.NbrCnt[0]++
			}
			tally.records++
			lok := locals[i].Ingest(rec) == nil
			rok := ref.Ingest(rec) == nil
			switch {
			case rok && deviation >= 0:
				t.Fatalf("seed %d round %d: the reference accepted deviating record %+v", seed, round, rec)
			case rok && !lok:
				t.Fatalf("seed %d round %d: local %d rejected %+v, which the reference accepts", seed, round, i, rec)
			case lok && !rok:
				// Accepted against an epoch that could not see the
				// contradicting history: it must be dropped at flush,
				// after the history's own unflushed holders publish.
				if deviation < 0 {
					t.Fatalf("seed %d round %d: consistent record %+v rejected by the reference", seed, round, rec)
				}
				tally.dropped[deviation]++
				tally.flushConflictExpected++
				expectDrop[i]++
				blocked[i][v] = true
				for j := range locals {
					if j != i && pending[j][v] > 0 {
						flush(j)
					}
				}
			case !lok && deviation >= 0:
				tally.rejected[deviation]++
			case !lok:
				t.Fatalf("seed %d round %d: consistent record %+v rejected by both sides", seed, round, rec)
			}
			if lok {
				pending[i][v]++
			}
			if rok {
				history[v] = true
				if len(rec.NbrCat) > 0 {
					pinned[v] = true
				}
			}
		}
		compare()
		for _, l := range locals {
			l.Flush()
		}
	}
	if got := mRejected.With("flush_conflict").Value() - conflicts0; got != int64(tally.flushConflictExpected) {
		t.Fatalf("flush_conflict counter advanced by %d, want %d", got, tally.flushConflictExpected)
	}
	t.Logf("%+v", tally)
	for kind, name := range []string{"category", "weight", "counts"} {
		if tally.rejected[kind] == 0 || tally.dropped[kind] == 0 {
			t.Errorf("%s deviations: %d rejected at ingest, %d dropped at flush — want both covered", name, tally.rejected[kind], tally.dropped[kind])
		}
	}
	if tally.backfills == 0 || tally.retrofits == 0 {
		t.Errorf("backfills %d, retrofits %d: want both covered", tally.backfills, tally.retrofits)
	}
}
