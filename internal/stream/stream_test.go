package stream

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
)

// testGraph builds a small social graph with planted communities as
// categories — small enough that long samples revisit nodes often, which
// stresses the incremental multiplicity updates.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Social(randx.New(42), gen.SocialConfig{
		N: 600, MeanDeg: 12, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 8, CommZipf: 0.8, Mixing: 0.35, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSamplers(t testing.TB, g *graph.Graph) map[string]sample.Sampler {
	t.Helper()
	wis, err := sample.NewDegreeWIS(g)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sample.Sampler{
		"UIS": sample.UIS{},
		"WIS": wis,
		"RW":  sample.NewRW(200),
	}
}

// maxRelDiff returns max_i |a_i − b_i| / max(1, |b_i|).
func maxRelDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		d := math.Abs(a[i]-b[i]) / math.Max(1, math.Abs(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// weightsMaxDiff returns the largest absolute difference over the union of
// two pair-weight tables, skipping pairs that are NaN in both.
func weightsMaxDiff(a, b *core.PairWeights) float64 {
	var m float64
	check := func(x, y int32, w, other float64) {
		if math.IsNaN(w) && math.IsNaN(other) {
			return
		}
		if d := math.Abs(w - other); d > m {
			m = d
		}
	}
	a.ForEach(func(x, y int32, w float64) { check(x, y, w, b.Get(x, y)) })
	b.ForEach(func(x, y int32, w float64) { check(x, y, w, a.Get(x, y)) })
	return m
}

// TestStreamBatchParity is the property test of the acceptance criteria:
// for identical observations, Accumulator.Snapshot must match core.Estimate
// to within 1e-9, across UIS/WIS/RW samplers and both scenarios — including
// at intermediate prefixes of the stream, where the incremental re-draw
// bookkeeping has to agree with a from-scratch batch recompute.
func TestStreamBatchParity(t *testing.T) {
	g := testGraph(t)
	N := float64(g.N())
	const draws = 4000
	for name, smp := range testSamplers(t, g) {
		for _, star := range []bool{false, true} {
			scenario := "induced"
			if star {
				scenario = "star"
			}
			t.Run(name+"/"+scenario, func(t *testing.T) {
				s, err := smp.Sample(randx.New(7), g, draws)
				if err != nil {
					t.Fatal(err)
				}
				so, err := sample.NewStreamObserver(g, star)
				if err != nil {
					t.Fatal(err)
				}
				acc, err := NewAccumulator(Config{K: g.NumCategories(), Star: star, N: N})
				if err != nil {
					t.Fatal(err)
				}
				checkpoints := map[int]bool{100: true, 1000: true, draws: true}
				var batch []sample.NodeObservation
				flush := func() {
					if len(batch) == 0 {
						return
					}
					if _, err := acc.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
				for i, v := range s.Nodes {
					rec := so.Observe(v, s.Weight(i))
					// Alternate single and batched ingestion, preserving
					// stream order (records reference earlier records).
					if i%37 == 0 {
						flush()
						if err := acc.Ingest(rec); err != nil {
							t.Fatal(err)
						}
					} else {
						batch = append(batch, rec)
						if len(batch) == 16 {
							flush()
						}
					}
					n := i + 1
					if !checkpoints[n] {
						continue
					}
					flush()
					snap, err := acc.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if snap.Draws != n {
						t.Fatalf("at %d: snapshot draws %d", n, snap.Draws)
					}
					var o *sample.Observation
					if star {
						o, err = sample.ObserveStar(g, s.Prefix(n))
					} else {
						o, err = sample.ObserveInduced(g, s.Prefix(n))
					}
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.Estimate(o, core.Options{N: N})
					if err != nil {
						t.Fatal(err)
					}
					if d := maxRelDiff(snap.Result.Sizes, want.Sizes); d > 1e-9 {
						t.Fatalf("at %d draws: size mismatch %g", n, d)
					}
					if d := weightsMaxDiff(snap.Result.Weights, want.Weights); d > 1e-9 {
						t.Fatalf("at %d draws: weight mismatch %g", n, d)
					}
					var wantWithin []float64
					if star {
						wantWithin, err = core.WithinWeightsStar(o, want.Sizes)
					} else {
						wantWithin, err = core.WithinWeightsInduced(o)
					}
					if err != nil {
						t.Fatal(err)
					}
					if d := maxRelDiff(snap.Within, wantWithin); d > 1e-9 {
						t.Fatalf("at %d draws: within mismatch %g", n, d)
					}
				}
			})
		}
	}
}

// TestBatchStreamNodeTableParity pins the batch observation to the
// accumulator's node table, exactly: UIS, WIS and RW samples with re-draws
// go through ObserveStar/ObserveInduced and, record by record from a
// StreamObserver, through an Accumulator. The two paths share no code, so
// every distinct node must agree with no tolerance on multiplicity,
// weight, category, degree and neighbor-category counts, and the induced
// edge set must equal the peers ExportFull lists.
func TestBatchStreamNodeTableParity(t *testing.T) {
	g := testGraph(t)
	for name, smp := range testSamplers(t, g) {
		for _, star := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/star=%v", name, star), func(t *testing.T) {
				s, err := smp.Sample(randx.New(13), g, 3000)
				if err != nil {
					t.Fatal(err)
				}
				observe := sample.ObserveInduced
				if star {
					observe = sample.ObserveStar
				}
				o, err := observe(g, s)
				if err != nil {
					t.Fatal(err)
				}
				if len(o.Nodes) == s.Len() {
					t.Fatal("sample has no re-draws")
				}
				so, err := sample.NewStreamObserver(g, star)
				if err != nil {
					t.Fatal(err)
				}
				acc, err := NewAccumulator(Config{K: g.NumCategories(), Star: star})
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range s.Nodes {
					if err := acc.Ingest(so.Observe(v, s.Weight(i))); err != nil {
						t.Fatal(err)
					}
				}
				fs, err := acc.ExportFull()
				if err != nil {
					t.Fatal(err)
				}
				if len(fs.Nodes) != len(o.Nodes) {
					t.Fatalf("stream holds %d nodes, batch %d", len(fs.Nodes), len(o.Nodes))
				}
				idx := make(map[int32]int, len(o.Nodes))
				for i, v := range o.Nodes {
					idx[v] = i
				}
				streamEdges := map[[2]int32]int{}
				for _, nr := range fs.Nodes {
					i, ok := idx[nr.Node]
					if !ok {
						t.Fatalf("node %d is in the stream only", nr.Node)
					}
					if nr.Mult != o.Mult[i] || nr.Weight != o.Weight[i] || nr.Cat != o.Cat[i] {
						t.Fatalf("node %d: stream mult/weight/cat %g/%g/%d, batch %g/%g/%d",
							nr.Node, nr.Mult, nr.Weight, nr.Cat, o.Mult[i], o.Weight[i], o.Cat[i])
					}
					if star {
						lo, hi := o.NbrOff[i], o.NbrOff[i+1]
						if nr.Deg != o.Deg[i] || !slices.Equal(nr.NbrCat, o.NbrCat[lo:hi]) || !slices.Equal(nr.NbrCnt, o.NbrCnt[lo:hi]) {
							t.Fatalf("node %d: stream star %g %v %v, batch %g %v %v",
								nr.Node, nr.Deg, nr.NbrCat, nr.NbrCnt, o.Deg[i], o.NbrCat[lo:hi], o.NbrCnt[lo:hi])
						}
					}
					for _, p := range nr.Peers {
						streamEdges[[2]int32{min(nr.Node, p), max(nr.Node, p)}]++
					}
				}
				for e, n := range streamEdges {
					if n != 2 {
						t.Fatalf("edge %v listed %d times in the stream's peers, want once per endpoint", e, n)
					}
				}
				if len(o.Edges) != len(streamEdges) {
					t.Fatalf("batch holds %d edges, stream %d", len(o.Edges), len(streamEdges))
				}
				for _, e := range o.Edges {
					u, v := o.Nodes[e[0]], o.Nodes[e[1]]
					if streamEdges[[2]int32{min(u, v), max(u, v)}] == 0 {
						t.Fatalf("batch edge %d-%d is not among the stream's peers", u, v)
					}
				}
			})
		}
	}
}

// TestPopulationEstimateParity checks that the accumulator's running
// collision estimator matches core.PopulationSize on the same sample.
func TestPopulationEstimateParity(t *testing.T) {
	g := testGraph(t)
	wis, err := sample.NewDegreeWIS(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := wis.Sample(randx.New(3), g, 2000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(Config{K: g.NumCategories(), Star: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Nodes {
		if err := acc.Ingest(so.Observe(v, s.Weight(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := core.PopulationSize(s)
	if math.Abs(snap.PopEstimate-want)/want > 1e-9 {
		t.Fatalf("pop estimate %g, want %g", snap.PopEstimate, want)
	}
	if snap.PopEstimate < float64(g.N())/3 || snap.PopEstimate > float64(g.N())*3 {
		t.Fatalf("pop estimate %g wildly off true N=%d", snap.PopEstimate, g.N())
	}
}

// TestConvergenceTracking checks that snapshot deltas start at +Inf, then
// reflect the estimate movement between snapshots and shrink as the sample
// grows.
func TestConvergenceTracking(t *testing.T) {
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(5), g, 30000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(Config{K: g.NumCategories(), Star: true, N: float64(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	var deltas []float64
	for i, v := range s.Nodes {
		if err := acc.Ingest(so.Observe(v, s.Weight(i))); err != nil {
			t.Fatal(err)
		}
		n := i + 1
		if n == 100 || n == 1000 || n == 3000 || n == 10000 || n == 30000 {
			snap, err := acc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if n == 100 {
				if !math.IsInf(snap.Converge.SizeDelta, 1) || !math.IsInf(snap.Converge.WeightDelta, 1) {
					t.Fatalf("first snapshot deltas not +Inf: %+v", snap.Converge)
				}
				if snap.Converge.DrawsSince != 100 {
					t.Fatalf("first DrawsSince = %d", snap.Converge.DrawsSince)
				}
				continue
			}
			deltas = append(deltas, snap.Converge.SizeDelta)
		}
	}
	// Doubling the sample repeatedly must eventually calm the estimate:
	// the last delta should be well below the first measured one.
	if len(deltas) < 3 || !(deltas[len(deltas)-1] < deltas[0]) {
		t.Fatalf("size deltas did not shrink: %v", deltas)
	}
	if deltas[len(deltas)-1] <= 0 {
		t.Fatalf("last delta should be positive, got %v", deltas)
	}
}

// TestConcurrentIngestAndSnapshot is the acceptance-criteria race test: many
// goroutines ingest shards of a star record stream (every record carrying
// full neighbor info, as concurrent crawlers would send) while others
// snapshot continuously; the final estimate must match the batch estimate of
// the union sample.
func TestConcurrentIngestAndSnapshot(t *testing.T) {
	g := testGraph(t)
	N := float64(g.N())
	s, err := sample.UIS{}.Sample(randx.New(9), g, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// Build self-contained star records (neighbor info on every record).
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		so, err := sample.NewStreamObserver(g, true)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = so.Observe(v, s.Weight(i))
	}
	acc, err := NewAccumulator(Config{K: g.NumCategories(), Star: true, N: N})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []sample.NodeObservation
			for i := w; i < len(recs); i += workers {
				if i%5 == 0 {
					if err := acc.Ingest(recs[i]); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				batch = append(batch, recs[i])
				if len(batch) == 32 {
					if _, err := acc.IngestBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if _, err := acc.IngestBatch(batch); err != nil {
				t.Error(err)
			}
		}(w)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap, err := acc.Snapshot(); err == nil {
					if snap.Draws > len(recs) {
						t.Errorf("snapshot draws %d exceeds stream length", snap.Draws)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if t.Failed() {
		return
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Draws != s.Len() || snap.Distinct != distinctCount(s) {
		t.Fatalf("draws=%d distinct=%d, want %d/%d", snap.Draws, snap.Distinct, s.Len(), distinctCount(s))
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Estimate(o, core.Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(snap.Result.Sizes, want.Sizes); d > 1e-9 {
		t.Fatalf("size mismatch after concurrent ingest: %g", d)
	}
	if d := weightsMaxDiff(snap.Result.Weights, want.Weights); d > 1e-9 {
		t.Fatalf("weight mismatch after concurrent ingest: %g", d)
	}
}

// TestLateStarInfoBackfill checks that star data arriving only on a later
// draw of a node retroactively covers its earlier draws, so the estimate
// matches a stream that carried the info from the start.
func TestLateStarInfoBackfill(t *testing.T) {
	late, err := NewAccumulator(Config{K: 2, Star: true, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	early, err := NewAccumulator(Config{K: 2, Star: true, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	info := sample.NodeObservation{Node: 1, Cat: 0, Deg: 4, NbrCat: []int32{0, 1}, NbrCnt: []float64{1, 3}}
	bare := sample.NodeObservation{Node: 1, Cat: 0}
	other := sample.NodeObservation{Node: 2, Cat: 1, Deg: 2, NbrCat: []int32{0}, NbrCnt: []float64{2}}
	for _, rec := range []sample.NodeObservation{bare, bare, info, other} {
		if err := late.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []sample.NodeObservation{info, bare, bare, other} {
		if err := early.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	sl, err := late.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	se, err := early.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(sl.Result.Sizes, se.Result.Sizes); d > 1e-12 {
		t.Fatalf("late star info biased sizes by %g: late %v early %v", d, sl.Result.Sizes, se.Result.Sizes)
	}
	if d := weightsMaxDiff(sl.Result.Weights, se.Result.Weights); d > 1e-12 {
		t.Fatalf("late star info biased weights by %g", d)
	}
}

// TestIngestRejectsNegativeCounts checks the public-endpoint hardening.
func TestIngestRejectsNegativeCounts(t *testing.T) {
	acc, err := NewAccumulator(Config{K: 2, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, NbrCat: []int32{1}, NbrCnt: []float64{-3}}); err == nil {
		t.Fatal("expected error for negative neighbor count")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Deg: math.NaN(), NbrCat: []int32{1}, NbrCnt: []float64{1}}); err == nil {
		t.Fatal("expected error for NaN degree")
	}
	if acc.Draws() != 0 {
		t.Fatalf("rejected records mutated state: %d draws", acc.Draws())
	}
}

// TestIngestRejectsConflictingRedraw is the silent-corruption regression
// test: a re-draw record whose category or weight contradicts the node's
// first observation used to be silently folded in under the old metadata;
// it must now be rejected without changing any state.
func TestIngestRejectsConflictingRedraw(t *testing.T) {
	acc, err := NewAccumulator(Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	first := sample.NodeObservation{Node: 1, Weight: 2, Cat: 0, Deg: 1, NbrCat: []int32{1}, NbrCnt: []float64{1}}
	if err := acc.Ingest(first); err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Weight: 2, Cat: 1}); err == nil {
		t.Fatal("expected error for conflicting category on re-draw")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Weight: 5, Cat: 0}); err == nil {
		t.Fatal("expected error for conflicting weight on re-draw")
	}
	if acc.Draws() != 1 {
		t.Fatalf("rejected re-draws mutated state: %d draws", acc.Draws())
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Weight: 2, Cat: 0}); err != nil {
		t.Fatalf("consistent re-draw rejected: %v", err)
	}
	// An omitted weight (0) on a re-draw inherits the recorded one, so
	// crawlers may send the weight only on a node's first record.
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0}); err != nil {
		t.Fatalf("weight-omitted re-draw rejected: %v", err)
	}
	if acc.Draws() != 3 {
		t.Fatalf("draws = %d, want 3", acc.Draws())
	}
}

// TestIngestRejectsInvalidWeight is the weight-coercion regression test:
// negative and NaN weights used to be silently coerced to 1; only weight 0
// means 1.
func TestIngestRejectsInvalidWeight(t *testing.T) {
	acc, err := NewAccumulator(Config{K: 2, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Weight: -3, Cat: 0}); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Weight: math.NaN(), Cat: 0}); err == nil {
		t.Fatal("expected error for NaN weight")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Weight: math.Inf(1), Cat: 0}); err == nil {
		t.Fatal("expected error for +Inf weight (would poison the collision statistics)")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Deg: math.Inf(1), NbrCat: []int32{1}, NbrCnt: []float64{1}}); err == nil {
		t.Fatal("expected error for +Inf degree")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, NbrCat: []int32{1}, NbrCnt: []float64{math.Inf(1)}}); err == nil {
		t.Fatal("expected error for +Inf neighbor count")
	}
	if acc.Draws() != 0 {
		t.Fatalf("rejected records mutated state: %d draws", acc.Draws())
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0}); err != nil {
		t.Fatalf("weight 0 (meaning 1) rejected: %v", err)
	}
}

// TestStarOnlyDegreeRedelivery is the regression test for the silent
// double-count: a node whose neighbors are all uncategorized records a
// positive degree with an empty count list, and an identical re-delivery
// used to re-trigger the record+backfill branch (the nil-slice sentinel
// never tripped), inflating the degree mass — and conflicting re-deliveries
// slipped through the same hole.
func TestStarOnlyDegreeRedelivery(t *testing.T) {
	acc, err := NewAccumulator(Config{K: 2, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := sample.NodeObservation{Node: 1, Cat: 0, Deg: 5}
	if err := acc.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(rec); err != nil {
		t.Fatalf("identical star-only re-delivery rejected: %v", err)
	}
	if acc.sums.DegNum != 10 {
		t.Fatalf("DegNum = %g after two deg-5 draws, want 10 (re-delivery double-counted)", acc.sums.DegNum)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Deg: 9}); err == nil {
		t.Fatal("expected error for conflicting degree re-delivery")
	}
	if acc.sums.DegNum != 10 || acc.Draws() != 2 {
		t.Fatalf("rejected re-delivery mutated state: DegNum=%g draws=%d", acc.sums.DegNum, acc.Draws())
	}
}

// TestIngestRejectsConflictingStarRedelivery checks that star data arriving
// again for a node must match the recorded constants: identical
// re-deliveries (concurrent crawlers) pass, contradictions are rejected
// instead of silently dropped.
func TestIngestRejectsConflictingStarRedelivery(t *testing.T) {
	acc, err := NewAccumulator(Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	info := sample.NodeObservation{Node: 1, Cat: 0, Deg: 4, NbrCat: []int32{1, 2}, NbrCnt: []float64{2, 1}}
	if err := acc.Ingest(info); err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(info); err != nil {
		t.Fatalf("identical star re-delivery rejected: %v", err)
	}
	// The same star data with the categories listed in a different order
	// (e.g. a client building the list from map iteration) is identical
	// data and must pass.
	permuted := sample.NodeObservation{Node: 1, Cat: 0, Deg: 4, NbrCat: []int32{2, 1}, NbrCnt: []float64{1, 2}}
	if err := acc.Ingest(permuted); err != nil {
		t.Fatalf("order-permuted star re-delivery rejected: %v", err)
	}
	// A counts-only re-delivery (documented convention) cannot attest the
	// full degree — the node has an uncategorized neighbor (deg 4, counts
	// sum 3) — so only the counts are compared.
	countsOnly := sample.NodeObservation{Node: 1, Cat: 0, NbrCat: []int32{1, 2}, NbrCnt: []float64{2, 1}}
	if err := acc.Ingest(countsOnly); err != nil {
		t.Fatalf("counts-only star re-delivery rejected: %v", err)
	}
	// A crawler that fills deg on every record but sends counts once is
	// equally conventional: a deg-only re-draw attests no counts.
	degOnly := sample.NodeObservation{Node: 1, Cat: 0, Deg: 4}
	if err := acc.Ingest(degOnly); err != nil {
		t.Fatalf("deg-only star re-delivery rejected: %v", err)
	}
	bad := info
	bad.NbrCnt = []float64{3, 1}
	if err := acc.Ingest(bad); err == nil {
		t.Fatal("expected error for conflicting neighbor counts")
	}
	bad = info
	bad.Deg = 9
	if err := acc.Ingest(bad); err == nil {
		t.Fatal("expected error for conflicting degree")
	}
	bad = info
	bad.NbrCat = []int32{1}
	bad.NbrCnt = []float64{2}
	if err := acc.Ingest(bad); err == nil {
		t.Fatal("expected error for conflicting neighbor-category set")
	}
	if acc.Draws() != 5 {
		t.Fatalf("draws = %d, want 5 (conflicts must not ingest)", acc.Draws())
	}
}

// TestDegFirstThenCountsAdoption covers the other mixed-convention order: a
// deg-only record arrives first, the counts-carrying record later; the
// counts are adopted (with the earlier draws' neighbor mass retrofitted),
// so both delivery orders converge on the same sums.
func TestDegFirstThenCountsAdoption(t *testing.T) {
	degFirst, err := NewAccumulator(Config{K: 3, Star: true, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	countsFirst, err := NewAccumulator(Config{K: 3, Star: true, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	degOnly := sample.NodeObservation{Node: 1, Cat: 0, Deg: 5}
	full := sample.NodeObservation{Node: 1, Cat: 0, Deg: 5, NbrCat: []int32{1}, NbrCnt: []float64{3}}
	other := sample.NodeObservation{Node: 2, Cat: 1, Deg: 2, NbrCat: []int32{0}, NbrCnt: []float64{2}}
	for _, rec := range []sample.NodeObservation{degOnly, degOnly, full, other} {
		if err := degFirst.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []sample.NodeObservation{full, degOnly, degOnly, other} {
		if err := countsFirst.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if degFirst.sums.DegNum != countsFirst.sums.DegNum || degFirst.sums.NbrNum[1] != countsFirst.sums.NbrNum[1] {
		t.Fatalf("delivery order changed sums: DegNum %g vs %g, NbrNum[1] %g vs %g",
			degFirst.sums.DegNum, countsFirst.sums.DegNum, degFirst.sums.NbrNum[1], countsFirst.sums.NbrNum[1])
	}
	sa, err := degFirst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := countsFirst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(sa.Result.Sizes, sb.Result.Sizes); d > 1e-12 {
		t.Fatalf("delivery order biased sizes by %g", d)
	}
	// Counts exceeding the recorded explicit degree are a contradiction.
	if err := degFirst.Ingest(sample.NodeObservation{Node: 1, Cat: 0, NbrCat: []int32{1, 2}, NbrCnt: []float64{3, 4}}); err == nil {
		t.Fatal("expected error for adopted counts exceeding the recorded degree")
	}
	// An impossible first record (explicit degree below its counts sum) is
	// rejected outright.
	if err := degFirst.Ingest(sample.NodeObservation{Node: 9, Cat: 0, Deg: 2, NbrCat: []int32{1}, NbrCnt: []float64{5}}); err == nil {
		t.Fatal("expected error for degree below the counts sum on a first record")
	}
	// A negative degree is rejected, not silently treated as a bare draw.
	if err := degFirst.Ingest(sample.NodeObservation{Node: 9, Cat: 0, Deg: -3}); err == nil {
		t.Fatal("expected error for negative degree")
	}
}

// TestCountsOnlyThenExplicitDegreeUpgrade covers the mixed-convention feed:
// a counts-only crawler records a derived lower-bound degree (uncategorized
// neighbors invisible), and a later record carrying the true explicit
// degree upgrades it — including the degree mass of the earlier draws — so
// the estimate converges on the full-information crawl instead of
// rejecting a correct record.
func TestCountsOnlyThenExplicitDegreeUpgrade(t *testing.T) {
	mixed, err := NewAccumulator(Config{K: 3, Star: true, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewAccumulator(Config{K: 3, Star: true, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	countsOnly := sample.NodeObservation{Node: 1, Cat: 0, NbrCat: []int32{1}, NbrCnt: []float64{3}}
	explicit := sample.NodeObservation{Node: 1, Cat: 0, Deg: 5, NbrCat: []int32{1}, NbrCnt: []float64{3}}
	other := sample.NodeObservation{Node: 2, Cat: 1, Deg: 2, NbrCat: []int32{0}, NbrCnt: []float64{2}}
	for _, rec := range []sample.NodeObservation{countsOnly, countsOnly, explicit, other} {
		if err := mixed.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []sample.NodeObservation{explicit, explicit, explicit, other} {
		if err := full.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if mixed.sums.DegNum != full.sums.DegNum {
		t.Fatalf("DegNum = %g after upgrade, want %g (retrofit missing)", mixed.sums.DegNum, full.sums.DegNum)
	}
	sm, err := mixed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sf, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(sm.Result.Sizes, sf.Result.Sizes); d > 1e-12 {
		t.Fatalf("upgrade left sizes biased by %g: %v vs %v", d, sm.Result.Sizes, sf.Result.Sizes)
	}
	// An explicit degree below the counts-derived bound is a genuine
	// contradiction, not a convention difference.
	if err := mixed.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Deg: 2, NbrCat: []int32{1}, NbrCnt: []float64{3}}); err == nil {
		t.Fatal("expected error for explicit degree below the counts sum")
	}
}

func distinctCount(s *sample.Sample) int {
	seen := map[int32]bool{}
	for _, v := range s.Nodes {
		seen[v] = true
	}
	return len(seen)
}

// TestIngestValidation checks that invalid records are rejected without
// corrupting accumulator state.
func TestIngestValidation(t *testing.T) {
	acc, err := NewAccumulator(Config{K: 3, Star: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccumulator(Config{K: 0}); err == nil {
		t.Fatal("expected error for K = 0")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 5}); err == nil {
		t.Fatal("expected error for out-of-range category")
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Peers: []int32{2}}); err == nil {
		t.Fatal("expected error for unknown peer")
	}
	// Scenario mismatches are rejected loudly instead of silently serving
	// garbage: star fields into an induced accumulator and vice versa.
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Deg: 3, NbrCat: []int32{1}, NbrCnt: []float64{3}}); err == nil {
		t.Fatal("expected error for star record in induced accumulator")
	}
	starAcc, err := NewAccumulator(Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := starAcc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Peers: []int32{2}}); err == nil {
		t.Fatal("expected error for induced record in star accumulator")
	}
	if acc.Draws() != 0 || acc.Distinct() != 0 {
		t.Fatalf("rejected records mutated state: draws=%d distinct=%d", acc.Draws(), acc.Distinct())
	}
	if _, err := acc.Snapshot(); err == nil {
		t.Fatal("expected error snapshotting an empty accumulator")
	}
	// Duplicate edge reports — within one record's peer list, across
	// records, and from the opposite endpoint — are ignored rather than
	// double counted.
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 2, Cat: 1, Peers: []int32{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 2, Cat: 1, Peers: []int32{1}}); err != nil {
		t.Fatal(err)
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// One edge between categories 0 and 1 with mult 1·2, rew 1 and 2.
	if w := snap.Result.Weights.Get(0, 1); math.Abs(w-1) > 1e-12 {
		t.Fatalf("duplicate edge report changed weight: %g", w)
	}
}

// TestCanonicalStarCounts checks the wire-order normalization: stored and
// compared counts are sorted by category with duplicates aggregated, so
// clients may emit the list in any order.
func TestCanonicalStarCounts(t *testing.T) {
	cat, cnt := canonicalStarCounts([]int32{2, 0, 2, 1}, []float64{1, 4, 2, 3})
	wantCat, wantCnt := []int32{0, 1, 2}, []float64{4, 3, 3}
	for j := range wantCat {
		if cat[j] != wantCat[j] || cnt[j] != wantCnt[j] {
			t.Fatalf("canonical = %v/%v, want %v/%v", cat, cnt, wantCat, wantCnt)
		}
	}
	// Zero-count entries carry no information and are dropped, so crawlers
	// that do and don't enumerate empty categories compare equal.
	if cat, cnt = canonicalStarCounts([]int32{0, 1}, []float64{0, 3}); len(cat) != 1 || cat[0] != 1 || cnt[0] != 3 {
		t.Fatalf("zero counts kept: %v/%v", cat, cnt)
	}
	in := []int32{0, 2}
	if c, _ := canonicalStarCounts(in, []float64{1, 2}); &c[0] != &in[0] {
		t.Fatal("already-canonical input must be returned as-is")
	}
	// The accumulator stores canonically and accepts an order-permuted
	// re-delivery as identical data.
	acc, err := NewAccumulator(Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Deg: 5, NbrCat: []int32{2, 1}, NbrCnt: []float64{3, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Ingest(sample.NodeObservation{Node: 1, Cat: 0, Deg: 5, NbrCat: []int32{1, 2}, NbrCnt: []float64{2, 3}}); err != nil {
		t.Fatalf("order-permuted re-delivery rejected: %v", err)
	}
	fs, err := acc.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	if nr := fs.Nodes[0]; !slices.Equal(nr.NbrCat, []int32{1, 2}) || !slices.Equal(nr.NbrCnt, []float64{2, 3}) || nr.Mult != 2 {
		t.Fatalf("stored star data not canonical: %+v", nr)
	}
}
