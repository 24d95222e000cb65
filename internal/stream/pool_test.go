package stream

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// splitStream samples a star stream off the test graph and partitions it by
// node id across nWorkers accumulators while also feeding every record to a
// single pooled reference — the node-disjoint split under which the
// nonlinear collision and Rew2 statistics pool exactly.
func splitStream(t *testing.T, nWorkers, draws int, boot uncert.Config) (workers []*Accumulator, ref *Accumulator) {
	t.Helper()
	g := testGraph(t)
	s, err := sample.NewRW(100).Sample(randx.New(77), g, draws)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: g.NumCategories(), Star: true, N: float64(g.N()), Replicates: boot}
	ref, err = NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workers = make([]*Accumulator, nWorkers)
	for i := range workers {
		if workers[i], err = NewAccumulator(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range s.Nodes {
		rec := so.Observe(v, s.Weight(i))
		if err := ref.Ingest(rec); err != nil {
			t.Fatal(err)
		}
		if err := workers[int(v)%nWorkers].Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	return workers, ref
}

func exportAll(t *testing.T, workers []*Accumulator) []*State {
	t.Helper()
	states := make([]*State, len(workers))
	for i, w := range workers {
		st, err := w.Export()
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	return states
}

// comparePoolToRef pins a rebuilt pool to a reference accumulator to ≤ tol
// relative error on sizes, within-weights, pair weights, the population
// estimate, and (when both carry a bootstrap) every CI endpoint.
func comparePoolToRef(t *testing.T, p *Pool, ref *Accumulator, tol float64) {
	t.Helper()
	got, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Draws != want.Draws {
		t.Fatalf("pool has %d draws, reference %d", got.Draws, want.Draws)
	}
	if d := maxRelDiff(got.Result.Sizes, want.Result.Sizes); d > tol {
		t.Errorf("pooled sizes differ from reference by %g > %g", d, tol)
	}
	if d := maxRelDiff(got.Within, want.Within); d > tol {
		t.Errorf("pooled within-weights differ from reference by %g > %g", d, tol)
	}
	if d := weightsMaxDiff(got.Result.Weights, want.Result.Weights); d > tol {
		t.Errorf("pooled pair weights differ from reference by %g > %g", d, tol)
	}
	if d := relDiff1(got.PopEstimate, want.PopEstimate); d > tol {
		t.Errorf("pooled population estimate %v vs reference %v (rel %g > %g)", got.PopEstimate, want.PopEstimate, d, tol)
	}
	if (got.Boot == nil) != (want.Boot == nil) {
		t.Fatalf("bootstrap presence: pool %v, reference %v", got.Boot != nil, want.Boot != nil)
	}
	if got.Boot == nil {
		return
	}
	for c := 0; c < p.cfg.K; c++ {
		gs, ws := got.Boot.SizeCI(c, 0.95), want.Boot.SizeCI(c, 0.95)
		gw, ww := got.Boot.WithinCI(c, 0.95), want.Boot.WithinCI(c, 0.95)
		for _, pair := range [][2]float64{{gs.Lo, ws.Lo}, {gs.Hi, ws.Hi}, {gw.Lo, ww.Lo}, {gw.Hi, ww.Hi}} {
			if d := relDiff1(pair[0], pair[1]); d > tol {
				t.Errorf("category %d CI endpoint differs by %g > %g (pool %v, reference %v)", c, d, tol, pair[0], pair[1])
			}
		}
	}
	gp, wp := got.Boot.PopCI(0.95), want.Boot.PopCI(0.95)
	if d := relDiff1(gp.Lo, wp.Lo); d > tol {
		t.Errorf("pop CI lo differs by %g > %g", d, tol)
	}
	if d := relDiff1(gp.Hi, wp.Hi); d > tol {
		t.Errorf("pop CI hi differs by %g > %g", d, tol)
	}
}

// relDiff1 is |a−b| / max(1, |b|) with NaN = NaN.
func relDiff1(a, b float64) float64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestPoolMatchesPooledAccumulator is the in-process half of the headline
// distributed guarantee: 4 worker accumulators over a node-disjoint 4-way
// split of one stream, exported and re-merged by a Pool, agree with a single
// accumulator that ingested everything — to ≤ 1e-9 on every estimate and
// every bootstrap CI endpoint.
func TestPoolMatchesPooledAccumulator(t *testing.T) {
	workers, ref := splitStream(t, 4, 3000, uncert.Config{B: 40, Seed: 11})
	p, err := NewPool(Config{K: ref.cfg.K, Star: true, N: ref.cfg.N})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Rebuild(exportAll(t, workers)); err != nil {
		t.Fatal(err)
	}
	comparePoolToRef(t, p, ref, 1e-9)

	// Losing one worker must degrade coverage, never correctness: the
	// 3-worker pool equals a 3-worker reference exactly as the 4-worker
	// pool equals the 4-worker one.
	ref3, err := NewAccumulator(Config{K: ref.cfg.K, Star: true, N: ref.cfg.N, Replicates: uncert.Config{B: 40, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	states := exportAll(t, workers[:3])
	if err := p.Rebuild(states); err != nil {
		t.Fatal(err)
	}
	// Build the 3-worker reference by merging the same exports through a
	// second pool — and check it against a direct re-ingest below.
	g := testGraph(t)
	s, err := sample.NewRW(100).Sample(randx.New(77), g, 3000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Nodes {
		if int(v)%4 == 3 {
			continue
		}
		if err := ref3.Ingest(so.Observe(v, s.Weight(i))); err != nil {
			t.Fatal(err)
		}
	}
	comparePoolToRef(t, p, ref3, 1e-9)
}

// TestPoolGenAdvancesPerRebuild pins the snapshot-cache contract.
func TestPoolGenAdvancesPerRebuild(t *testing.T) {
	workers, _ := splitStream(t, 2, 200, uncert.Config{})
	p, err := NewPool(Config{K: workers[0].cfg.K, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Gen() != 0 {
		t.Fatalf("fresh pool has gen %d, want 0", p.Gen())
	}
	states := exportAll(t, workers)
	for i := 1; i <= 3; i++ {
		if err := p.Rebuild(states); err != nil {
			t.Fatal(err)
		}
		if p.Gen() != uint64(i) {
			t.Fatalf("after %d rebuilds gen is %d", i, p.Gen())
		}
	}
}

func TestPoolIsReadOnly(t *testing.T) {
	p, err := NewPool(Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.IngestBatch(make([]sample.NodeObservation, 2)); n != 0 || !errors.Is(err, ErrReadOnly) {
		t.Fatalf("IngestBatch returned (%d, %v), want (0, ErrReadOnly)", n, err)
	}
	if _, err := p.Snapshot(); err == nil {
		t.Fatal("empty pool snapshot must fail")
	}
}

func TestPoolRejectsMismatchedStates(t *testing.T) {
	p, err := NewPool(Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	good := &State{K: 3, Star: true, Sums: core.NewSums(3, true)}
	if err := p.Rebuild([]*State{good, {K: 4, Star: true, Sums: core.NewSums(4, true)}}); err == nil {
		t.Fatal("K mismatch accepted")
	}
	if err := p.Rebuild([]*State{good, {K: 3, Star: false, Sums: core.NewSums(3, false)}}); err == nil {
		t.Fatal("scenario mismatch accepted")
	}
	if err := p.Rebuild([]*State{good, nil}); err == nil {
		t.Fatal("nil state accepted")
	}
	// A failed rebuild must not disturb the published view.
	if err := p.Rebuild([]*State{good}); err != nil {
		t.Fatal(err)
	}
	gen := p.Gen()
	if err := p.Rebuild([]*State{good, nil}); err == nil {
		t.Fatal("nil state accepted")
	}
	if p.Gen() != gen {
		t.Fatal("failed rebuild advanced the generation")
	}
}

// TestPoolDropsReplicatesOnConfigMismatch: workers disagreeing on the
// bootstrap configuration cannot contribute mergeable replicates — the pool
// keeps the primary estimate and drops the CIs instead of serving garbage.
func TestPoolDropsReplicatesOnConfigMismatch(t *testing.T) {
	g := testGraph(t)
	s, err := sample.NewRW(100).Sample(randx.New(5), g, 400)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(boot uncert.Config, pick func(int32) bool) *State {
		acc, err := NewAccumulator(Config{K: g.NumCategories(), Star: true, N: float64(g.N()), Replicates: boot})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range s.Nodes {
			if !pick(v) {
				continue
			}
			if err := acc.Ingest(so.Observe(v, s.Weight(i))); err != nil {
				t.Fatal(err)
			}
		}
		st, err := acc.Export()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	even := mk(uncert.Config{B: 10, Seed: 1}, func(v int32) bool { return v%2 == 0 })
	oddOtherSeed := mk(uncert.Config{B: 10, Seed: 2}, func(v int32) bool { return v%2 == 1 })
	oddNoBoot := mk(uncert.Config{}, func(v int32) bool { return v%2 == 1 })

	for name, other := range map[string]*State{"seed_mismatch": oddOtherSeed, "missing_bootstrap": oddNoBoot} {
		p, err := NewPool(Config{K: g.NumCategories(), Star: true, N: float64(g.N())})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Rebuild([]*State{even, other}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if snap.Boot != nil {
			t.Errorf("%s: pool kept unmergeable replicates", name)
		}
		if p.Config().Replicates.Enabled() {
			t.Errorf("%s: pool config claims an enabled bootstrap", name)
		}
		if snap.Draws != len(s.Nodes) {
			t.Errorf("%s: pool has %d draws, want %d", name, snap.Draws, len(s.Nodes))
		}
	}
}

// TestPoolShrinkingRebuildResetsConvergence: when a worker drops out of the
// merge (stale or dead), the next Rebuild carries fewer draws than the last
// snapshot saw. Convergence must then restart as after a restore — DrawsSince
// equal to Draws and +Inf deltas — instead of reporting negative progress.
func TestPoolShrinkingRebuildResetsConvergence(t *testing.T) {
	workers, _ := splitStream(t, 2, 400, uncert.Config{})
	p, err := NewPool(Config{K: workers[0].cfg.K, Star: true, N: workers[0].cfg.N})
	if err != nil {
		t.Fatal(err)
	}
	states := exportAll(t, workers)
	snapAfter := func(states []*State) *Snapshot {
		t.Helper()
		if err := p.Rebuild(states); err != nil {
			t.Fatal(err)
		}
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if c := snapAfter(states).Converge; c.DrawsSince != 400 {
		t.Fatalf("first snapshot: DrawsSince = %d, want 400", c.DrawsSince)
	}
	even := snapAfter(states[:1])
	if even.Draws != int(states[0].Sums.Draws) || even.Draws >= 400 {
		t.Fatalf("even-only pool has %d draws, want %g < 400", even.Draws, states[0].Sums.Draws)
	}
	if c := even.Converge; c.DrawsSince != even.Draws || !math.IsInf(c.SizeDelta, 1) || !math.IsInf(c.WeightDelta, 1) {
		t.Fatalf("after a shrinking rebuild: %+v, want DrawsSince %d and +Inf deltas", c, even.Draws)
	}
	// The reset baseline is the even-only snapshot: the worker rejoining
	// is measured against it.
	if c := snapAfter(states).Converge; c.DrawsSince != 400-even.Draws || math.IsInf(c.SizeDelta, 0) || math.IsInf(c.WeightDelta, 0) {
		t.Fatalf("after the worker rejoined: %+v, want DrawsSince %d and finite deltas", c, 400-even.Draws)
	}
}

// TestPoolExportRacesReplicateToggle runs exports against Rebuilds that
// alternate between a replicate-carrying and a replicate-free merge, so the
// bootstrap shape can change between an export's peek and its copy. Every
// exported State must be one of the two published views, whole: replicates
// under the workers' configuration with the full draw total, or none with
// the even worker's total.
func TestPoolExportRacesReplicateToggle(t *testing.T) {
	boot := uncert.Config{B: 50, Seed: 3}
	workers, _ := splitStream(t, 2, 400, boot)
	withReps := exportAll(t, workers)
	evenOnly := *withReps[0]
	evenOnly.Reps = nil
	noReps := []*State{&evenOnly}
	all, even := withReps[0].Sums.Draws+withReps[1].Sums.Draws, evenOnly.Sums.Draws

	p, err := NewPool(Config{K: workers[0].cfg.K, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Rebuild(withReps); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				st, err := p.Export()
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case st.Reps != nil && (st.Reps.Config() != boot || st.Sums.Draws != all):
					t.Errorf("export with replicates %+v carries %g draws, want %+v and %g", st.Reps.Config(), st.Sums.Draws, boot, all)
				case st.Reps == nil && st.Sums.Draws != even:
					t.Errorf("export without replicates carries %g draws, want %g", st.Sums.Draws, even)
				}
			}
		}()
	}
	for i := range 400 {
		states := withReps
		if i%2 == 0 {
			states = noReps
		}
		if err := p.Rebuild(states); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
}
