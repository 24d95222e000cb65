package stream

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// nodeTableSnapshot returns the exact estimate of a cut from its node
// table alone: the nodes of fs, with their multiplicities, constants and
// star data or peers, form a batch Observation, which core.SumsFromObservation
// and uncert.ReplicatesFromObservation score; the collision scalars are
// summed from the table; and a Pool estimates the resulting State. No
// engine code runs on the way, so an engine that matches it matches the
// paper's sums over the distinct sampled nodes, whatever order its
// records, epochs and folds took.
func nodeTableSnapshot(t *testing.T, cfg Config, fs *FullState) *Snapshot {
	t.Helper()
	o := &sample.Observation{K: cfg.K, Star: cfg.Star}
	st := &State{K: cfg.K, Star: cfg.Star, Gen: fs.State.Gen, Distinct: int64(len(fs.Nodes))}
	idx := make(map[int32]int32, len(fs.Nodes))
	if cfg.Star {
		o.NbrOff = []int32{0}
	}
	for i, nr := range fs.Nodes {
		idx[nr.Node] = int32(i)
		o.Nodes = append(o.Nodes, nr.Node)
		o.Mult = append(o.Mult, nr.Mult)
		o.Weight = append(o.Weight, nr.Weight)
		o.Cat = append(o.Cat, nr.Cat)
		o.Draws += int(nr.Mult)
		st.Psi1 += nr.Mult * nr.Weight
		st.PsiInv += nr.Mult / nr.Weight
		st.Collisions += nr.Mult * (nr.Mult - 1) / 2
		if cfg.Star {
			o.Deg = append(o.Deg, nr.Deg)
			o.NbrCat = append(o.NbrCat, nr.NbrCat...)
			o.NbrCnt = append(o.NbrCnt, nr.NbrCnt...)
			o.NbrOff = append(o.NbrOff, int32(len(o.NbrCat)))
		}
	}
	for i, nr := range fs.Nodes {
		for _, p := range nr.Peers {
			if j, ok := idx[p]; !ok {
				t.Fatalf("node %d lists peer %d, which the table lacks", nr.Node, p)
			} else if int32(i) < j {
				o.Edges = append(o.Edges, [2]int32{int32(i), j})
			}
		}
	}
	st.Sums = core.SumsFromObservation(o)
	if cfg.Replicates.Enabled() {
		reps, err := uncert.ReplicatesFromObservation(o, cfg.Replicates)
		if err != nil {
			t.Fatal(err)
		}
		st.Reps = reps
	}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Rebuild([]*State{st}); err != nil {
		t.Fatal(err)
	}
	snap, err := pool.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// checkOracle requires acc's current estimate, its bootstrap replicates
// included, to match the node-table oracle of the same cut within tol:
// the draw and distinct counts exactly, sizes, within-densities,
// replicates and N̂ relative (maxRelDiff), pair weights absolutely. The
// accumulator must be quiescent. It returns both estimates.
func checkOracle(t *testing.T, what string, acc FullExporter, tol float64) (got, want *Snapshot) {
	t.Helper()
	fs, err := acc.ExportFull()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got, err = acc.Snapshot()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.Gen != fs.State.Gen {
		t.Fatalf("%s: snapshot at gen %d, export at %d: the accumulator is not quiescent", what, got.Gen, fs.State.Gen)
	}
	want = nodeTableSnapshot(t, acc.Config(), fs)
	if got.Draws != want.Draws || got.Distinct != want.Distinct {
		t.Fatalf("%s: draws/distinct %d/%d, node table %d/%d", what, got.Draws, got.Distinct, want.Draws, want.Distinct)
	}
	if d := maxRelDiff(got.Result.Sizes, want.Result.Sizes); d > tol {
		t.Fatalf("%s: sizes differ from the node table by %g", what, d)
	}
	if d := weightsMaxDiff(got.Result.Weights, want.Result.Weights); d > tol {
		t.Fatalf("%s: weights differ from the node table by %g", what, d)
	}
	if d := maxRelDiff(got.Within, want.Within); d > tol {
		t.Fatalf("%s: within-densities differ from the node table by %g", what, d)
	}
	if d := maxRelDiff([]float64{got.PopEstimate}, []float64{want.PopEstimate}); d > tol {
		t.Fatalf("%s: population estimate %g, node table %g", what, got.PopEstimate, want.PopEstimate)
	}
	compareBoot(t, what+" (node table)", got.Boot, want.Boot, tol)
	return got, want
}

// epochOracleShape is one ingest shape of the epoch engine's parity
// tests: a star sample, observed by a crawler that sends a node's star
// data on its first record and, when resend > 0, on every record whose
// index resend divides (a re-delivery the engines must reconcile), then
// ingested into an EpochAccumulator with the given flushEvery.
type epochOracleShape struct {
	sampler    sample.Sampler
	seed       uint64
	n, resend  int
	flushEvery int
	ingest     func(t *testing.T, ea *EpochAccumulator, recs []sample.NodeObservation)
}

// oneLocalShape is one Local with an auto-flush every 64 records over an
// RW sample, so re-draws cross many epoch boundaries.
var oneLocalShape = epochOracleShape{sample.NewRW(50), 8, 3000, 0, 64, ingestOneLocal}

// writersShape is 8 writers over a UIS sample (see ingestWriters) beside
// a snapshotter whose mid-stream snapshots must stay within the stream
// and keep their bootstrap.
var writersShape = epochOracleShape{sample.UIS{}, 77, 8000, 3, 0, ingestWriters}

// TestEpochLocalMatchesAccumulator pins the sequential one-writer case
// (oneLocalShape) without replicates to the node-table oracle and to the
// single-lock engine.
func TestEpochLocalMatchesAccumulator(t *testing.T) {
	checkEpochShape(t, oneLocalShape, 0)
}

// TestEpochMatchesSingleConcurrent is the concurrent property test:
// writersShape without replicates must match the node-table oracle and
// the single-lock engine. Run under -race.
func TestEpochMatchesSingleConcurrent(t *testing.T) {
	checkEpochShape(t, writersShape, 0)
}

// TestEpochBootstrapMatchesSingle is the acceptance test of the epoch
// replicate path: both shapes at B = 20 must match the node-table oracle,
// replicates and 0.9 size CIs included. Run under -race.
func TestEpochBootstrapMatchesSingle(t *testing.T) {
	t.Run("local", func(t *testing.T) { checkEpochShape(t, oneLocalShape, 20) })
	t.Run("writers", func(t *testing.T) { checkEpochShape(t, writersShape, 20) })
}

// checkEpochShape ingests sh into an epoch engine with B replicates and
// requires the final estimate to match the node-table oracle to 1e-9,
// replicates and percentile CIs included, and the primary estimate to
// match the single-lock engine fed the same records, which must match the
// oracle too.
func checkEpochShape(t *testing.T, sh epochOracleShape, B int) {
	g := testGraph(t)
	s, err := sh.sampler.Sample(randx.New(sh.seed), g, sh.n)
	if err != nil {
		t.Fatal(err)
	}
	observer := func() *sample.StreamObserver {
		so, err := sample.NewStreamObserver(g, true)
		if err != nil {
			t.Fatal(err)
		}
		return so
	}
	so := observer()
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		if sh.resend > 0 && i%sh.resend == 0 {
			recs[i] = observer().Observe(v, s.Weight(i))
		} else {
			recs[i] = so.Observe(v, s.Weight(i))
		}
	}
	cfg := Config{K: g.NumCategories(), Star: true, N: float64(g.N()), Replicates: uncert.Config{B: B, Seed: 3}}
	ea, err := NewEpochAccumulator(cfg, sh.flushEvery)
	if err != nil {
		t.Fatal(err)
	}
	sh.ingest(t, ea, recs)
	if t.Failed() {
		return
	}
	got, exact := checkOracle(t, "epoch", ea, 1e-9)
	if B > 0 {
		for c := 0; c < cfg.K; c++ {
			a, b := got.Boot.SizeCI(c, 0.9), exact.Boot.SizeCI(c, 0.9)
			if math.Abs(a.Lo-b.Lo) > 1e-6 || math.Abs(a.Hi-b.Hi) > 1e-6 {
				t.Fatalf("category %d: epoch CI %+v, node table %+v", c, a, b)
			}
		}
	}

	single, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	want, _ := checkOracle(t, "single-lock", single, 1e-9)
	if got.Draws != want.Draws || got.Distinct != want.Distinct {
		t.Fatalf("epoch draws/distinct %d/%d, single-lock %d/%d", got.Draws, got.Distinct, want.Draws, want.Distinct)
	}
	if d := maxRelDiff(got.Result.Sizes, want.Result.Sizes); d > 1e-9 {
		t.Fatalf("epoch sizes differ from single-lock by %g", d)
	}
	if d := weightsMaxDiff(got.Result.Weights, want.Result.Weights); d > 1e-9 {
		t.Fatalf("epoch weights differ from single-lock by %g", d)
	}
	if d := maxRelDiff(got.Within, want.Within); d > 1e-9 {
		t.Fatalf("epoch within-densities differ from single-lock by %g", d)
	}
	if d := math.Abs(got.PopEstimate-want.PopEstimate) / want.PopEstimate; d > 1e-9 {
		t.Fatalf("epoch pop estimate %g, single-lock %g", got.PopEstimate, want.PopEstimate)
	}
}

// ingestOneLocal ingests recs through one Local and flushes it at the end.
func ingestOneLocal(t *testing.T, ea *EpochAccumulator, recs []sample.NodeObservation) {
	l := ea.NewLocal()
	for _, rec := range recs {
		if err := l.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if applied, dropped := l.Flush(); dropped > 0 {
		t.Fatalf("final flush dropped %d records (applied %d)", dropped, applied)
	}
}

// ingestWriters ingests interleaved shards of recs from 8 goroutines —
// even ones through a Local flushed every 100 records and at the end, odd
// ones through one-record and 25-record IngestBatch calls — while a
// snapshotter polls.
func ingestWriters(t *testing.T, ea *EpochAccumulator, recs []sample.NodeObservation) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				l := ea.NewLocal()
				defer l.Flush()
				for i := w; i < len(recs); i += workers {
					if err := l.Ingest(recs[i]); err != nil {
						t.Error(err)
						return
					}
					if l.Pending() >= 100 {
						if _, dropped := l.Flush(); dropped > 0 {
							t.Errorf("flush dropped %d records of a conflict-free stream", dropped)
							return
						}
					}
				}
				return
			}
			var batch []sample.NodeObservation
			for i := w; i < len(recs); i += workers {
				if i%7 == 0 {
					if _, err := ea.IngestBatch(recs[i : i+1]); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				batch = append(batch, recs[i])
				if len(batch) == 25 {
					if _, err := ea.IngestBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if _, err := ea.IngestBatch(batch); err != nil {
				t.Error(err)
			}
		}(w)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := ea.Snapshot()
			if err != nil {
				continue
			}
			if snap.Draws > len(recs) {
				t.Errorf("snapshot draws %d exceed the stream's %d", snap.Draws, len(recs))
				return
			}
			if (snap.Boot != nil) != ea.Config().Replicates.Enabled() {
				t.Error("a mid-stream snapshot lost its bootstrap")
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
}
