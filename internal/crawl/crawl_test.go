package crawl

import (
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// paperGraph builds a small instance of the §6.2.1 paper generator (five
// categories, 60…800 nodes) — the test substrate of the stopping and
// determinism properties.
func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Paper(randx.New(11), gen.PaperConfig{
		Sizes:   []int64{60, 100, 200, 400, 800},
		K:       8,
		Alpha:   0.3,
		Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCrawlStopsOnTarget is the tentpole acceptance test: on the paper
// generator, under both measurement scenarios and both CI engines, a crawl
// with a reachable size-CI target stops autonomously before the budget and
// reports half-widths at or below the target.
func TestCrawlStopsOnTarget(t *testing.T) {
	g := paperGraph(t)
	N := float64(g.N())
	big := 4 // the 800-node category: its size CI tightens fastest
	cases := []struct {
		name string
		cfg  Config
	}{
		{"star/bootstrap", Config{
			Walkers: 3, Star: true, N: N, Seed: 5,
			Bootstrap:  uncert.Config{B: 80, Seed: 5},
			SizeTarget: 180, SizeCats: []int{big},
			MaxDraws: 60000, CheckEvery: 1500, BurnIn: 200,
		}},
		{"induced/bootstrap", Config{
			Walkers: 3, Star: false, N: N, Seed: 6,
			Bootstrap:  uncert.Config{B: 80, Seed: 6},
			SizeTarget: 180, SizeCats: []int{big},
			MaxDraws: 60000, CheckEvery: 1500, BurnIn: 200,
		}},
		{"star/replication", Config{
			Walkers: 4, Star: true, N: N, Seed: 7,
			Engine:     EngineReplication,
			SizeTarget: 260, SizeCats: []int{big},
			MaxDraws: 60000, CheckEvery: 2000, BurnIn: 200,
		}},
		{"induced/replication", Config{
			Walkers: 4, Star: false, N: N, Seed: 8,
			Engine:     EngineReplication,
			SizeTarget: 260, SizeCats: []int{big},
			MaxDraws: 60000, CheckEvery: 2000, BurnIn: 200,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Start(g, nil, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.Stopped != ReasonTarget {
				t.Fatalf("stopped = %q after %d draws (hw=%g), want %q within the %d budget",
					res.Stopped, res.Draws, res.SizeHW[big], ReasonTarget, tc.cfg.MaxDraws)
			}
			if res.Draws >= tc.cfg.MaxDraws {
				t.Fatalf("target stop consumed the whole budget (%d draws)", res.Draws)
			}
			if hw := res.SizeHW[big]; math.IsNaN(hw) || hw > tc.cfg.SizeTarget {
				t.Fatalf("final half-width %g exceeds target %g", hw, tc.cfg.SizeTarget)
			}
			// The estimate the crawl stopped on must bracket the truth to
			// within a few half-widths (a loose sanity bound, not a
			// coverage test — internal/eval carries those).
			truth := float64(g.CategorySize(int32(big)))
			est := res.Snapshot.Result.Sizes[big]
			if math.Abs(est-truth) > 6*tc.cfg.SizeTarget {
				t.Fatalf("size estimate %.0f vs truth %.0f: off by ≫ the targeted precision", est, truth)
			}
			if res.Replication == nil && tc.cfg.Engine == EngineReplication {
				t.Fatal("replication engine produced no replication summary")
			}
			// Per-walker draws sum to the total and every walker worked.
			sum := 0
			for _, w := range res.Walkers {
				sum += w.Draws
				if w.Draws == 0 {
					t.Fatalf("walker %d recorded no draws", w.Walker)
				}
			}
			if sum != res.Draws {
				t.Fatalf("per-walker draws sum to %d, total is %d", sum, res.Draws)
			}
		})
	}
}

// TestCrawlWithinTargetStops exercises the within-weight target on the star
// scenario: within-category densities are bounded in [0,1]-ish scale, so a
// loose threshold must trigger a target stop.
func TestCrawlWithinTargetStops(t *testing.T) {
	g := paperGraph(t)
	c, err := Start(g, nil, Config{
		Walkers: 2, Star: true, N: float64(g.N()), Seed: 9,
		Bootstrap:    uncert.Config{B: 60, Seed: 9},
		WithinTarget: 0.4, WithinCats: []int{3, 4},
		MaxDraws: 60000, CheckEvery: 2000, BurnIn: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != ReasonTarget {
		t.Fatalf("stopped = %q (hw=%g,%g), want target", res.Stopped, res.WithinHW[3], res.WithinHW[4])
	}
	for _, cat := range []int{3, 4} {
		if hw := res.WithinHW[cat]; math.IsNaN(hw) || hw > 0.4 {
			t.Fatalf("within half-width[%d] = %g exceeds target", cat, hw)
		}
	}
}

// TestCrawlBudgetStop checks the fixed-budget special case: with no target
// configured the crawl runs to exactly MaxDraws and reports ReasonBudget.
func TestCrawlBudgetStop(t *testing.T) {
	g := paperGraph(t)
	walks0 := mWalkSec.Count()
	c, err := Start(g, nil, Config{
		Walkers: 3, Star: true, N: float64(g.N()), Seed: 3,
		MaxDraws: 500, CheckEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != ReasonBudget || res.Draws != 500 {
		t.Fatalf("got (%q, %d draws), want (budget, exactly 500)", res.Stopped, res.Draws)
	}
	if res.Checkpoints != 3 { // 200 + 200 + 100
		t.Fatalf("checkpoints = %d, want 3", res.Checkpoints)
	}
	if res.Snapshot.Draws != 500 {
		t.Fatalf("snapshot draws = %d", res.Snapshot.Draws)
	}
	// Every walker draws in every round: one crawl_walk_seconds sample per
	// walker and round.
	if got := mWalkSec.Count() - walks0; got != 3*3 {
		t.Fatalf("crawl_walk_seconds observed %d walker rounds, want 9", got)
	}
	// MinDraws defers a reachable target past the budget.
	c2, err := Start(g, nil, Config{
		Walkers: 1, Star: true, N: float64(g.N()), Seed: 3,
		Bootstrap:  uncert.Config{B: 20, Seed: 3},
		SizeTarget: 1e9, // met at the first checkpoint…
		MinDraws:   1e6, // …but never before MinDraws
		MaxDraws:   400, CheckEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stopped != ReasonBudget || res2.Draws != 400 {
		t.Fatalf("MinDraws ignored: (%q, %d)", res2.Stopped, res2.Draws)
	}
}

// TestCrawlResultReusesCheckpointSnapshot pins that a crawl on the
// bootstrap engine reports the last checkpoint's snapshot as its result
// instead of estimating the same generation again: the result is snapshot
// number Checkpoints, and its convergence delta spans the last round, not
// zero draws against a baseline the checkpoint just set, and readers after
// the crawl share it. A crawl without replicates takes no checkpoint
// snapshots and still takes the final one.
func TestCrawlResultReusesCheckpointSnapshot(t *testing.T) {
	g := paperGraph(t)
	for _, star := range []bool{true, false} {
		scfg := stream.Config{K: g.NumCategories(), Star: star, N: float64(g.N()), Replicates: uncert.Config{B: 20, Seed: 4}}
		var acc stream.Ingester
		var err error
		if star {
			acc, err = stream.NewEpochAccumulator(scfg, 0)
		} else {
			acc, err = stream.NewAccumulator(scfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		c, err := Start(g, acc, Config{
			Walkers: 2, Star: star, N: float64(g.N()), Seed: 4,
			MaxDraws: 600, CheckEvery: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Wait()
		if err != nil {
			t.Fatal(err)
		}
		snap := res.Snapshot
		if snap.Seq != 3 || snap.Draws != 600 || snap.Converge.DrawsSince != 200 || snap.Boot == nil {
			t.Fatalf("star=%v: result snapshot seq %d, draws %d, draws_since %d; want 3, 600, 200 with CIs",
				star, snap.Seq, snap.Draws, snap.Converge.DrawsSince)
		}
		// Concurrent readers at the crawl's final generation get the last
		// checkpoint's snapshot: the generation computed exactly one.
		var readers sync.WaitGroup
		for r := 0; r < 8; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				if got, err := acc.Snapshot(); err != nil || got != snap {
					t.Errorf("star=%v: a reader after the crawl got another snapshot (%v)", star, err)
				}
			}()
		}
		readers.Wait()
	}
	c, err := Start(g, nil, Config{Walkers: 2, Star: true, N: float64(g.N()), Seed: 4, MaxDraws: 600, CheckEvery: 200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Seq != 1 || res.Snapshot.Draws != 600 {
		t.Fatalf("no replicates: result snapshot seq %d, draws %d; want 1, 600", res.Snapshot.Seq, res.Snapshot.Draws)
	}
}

// TestCrawlRoundAllocationFair pins the per-round draw allocation: the
// remainder rotates across rounds so an uneven cadence cannot permanently
// skew per-walker counts, and a cadence below the walker count is raised so
// no walker is ever starved.
func TestCrawlRoundAllocationFair(t *testing.T) {
	g := paperGraph(t)
	// 3 walkers × rounds of 4: the 1-draw remainder must rotate, giving
	// exactly 4 draws per walker over 3 rounds.
	c, err := Start(g, nil, Config{
		Walkers: 3, Star: true, N: float64(g.N()), Seed: 4,
		MaxDraws: 12, CheckEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Walkers {
		if w.Draws != 4 {
			t.Fatalf("walker %d drew %d of 12, want the rotated fair share 4 (all: %+v)", w.Walker, w.Draws, res.Walkers)
		}
	}
	// CheckEvery below the walker count is raised to it: every walker works.
	c2, err := Start(g, nil, Config{
		Walkers: 4, Star: true, N: float64(g.N()), Seed: 4,
		MaxDraws: 40, CheckEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res2.Walkers {
		if w.Draws != 10 {
			t.Fatalf("walker %d drew %d of 40, want 10 (all: %+v)", w.Walker, w.Draws, res2.Walkers)
		}
	}
}

// TestCrawlDeterminism pins the reproducibility contract: same seed and
// configuration ⇒ identical total and per-walker draw counts, identical
// stop reason, and estimates equal to float-reassociation error, across
// both scenarios (star walkers shard the stream across their own Locals,
// induced ones share an observer) and both engines.
func TestCrawlDeterminism(t *testing.T) {
	g := paperGraph(t)
	N := float64(g.N())
	cfgs := map[string]Config{
		"star/bootstrap/sharded": {
			Walkers: 4, Star: true, N: N, Seed: 21,
			Bootstrap:  uncert.Config{B: 50, Seed: 21},
			SizeTarget: 200, SizeCats: []int{4},
			MaxDraws: 40000, CheckEvery: 1200, BurnIn: 100,
		},
		"induced/replication": {
			Walkers: 3, Star: false, N: N, Seed: 22,
			Engine:     EngineReplication,
			SizeTarget: 300, SizeCats: []int{4},
			MaxDraws: 40000, CheckEvery: 1500, BurnIn: 100,
		},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			run := func() *Result {
				c, err := Start(g, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Wait()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Draws != b.Draws || a.Stopped != b.Stopped || a.Checkpoints != b.Checkpoints {
				t.Fatalf("runs diverged: (%d draws, %q, %d cps) vs (%d, %q, %d)",
					a.Draws, a.Stopped, a.Checkpoints, b.Draws, b.Stopped, b.Checkpoints)
			}
			for i := range a.Walkers {
				if a.Walkers[i].Draws != b.Walkers[i].Draws {
					t.Fatalf("walker %d draws differ: %d vs %d", i, a.Walkers[i].Draws, b.Walkers[i].Draws)
				}
			}
			for c := range a.Snapshot.Result.Sizes {
				x, y := a.Snapshot.Result.Sizes[c], b.Snapshot.Result.Sizes[c]
				if d := math.Abs(x - y); d > 1e-9*math.Max(1, math.Abs(x)) {
					t.Fatalf("size[%d] differs across runs: %g vs %g", c, x, y)
				}
			}
		})
	}
}

// TestCrawlIntoExistingAccumulator checks the server wiring path: the crawl
// streams into a caller-owned accumulator, which serves the same draws.
func TestCrawlIntoExistingAccumulator(t *testing.T) {
	g := paperGraph(t)
	acc, err := stream.NewEpochAccumulator(stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N())}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The config must match the accumulator's scale: a mismatched N (or
	// Size) would evaluate CI targets on a different scale than the
	// served estimates, so Start rejects it.
	if _, err := Start(g, acc, Config{Walkers: 2, Star: true, Seed: 2, MaxDraws: 600}); err == nil {
		t.Fatal("want error for N mismatch with the provided accumulator")
	}
	c, err := Start(g, acc, Config{Walkers: 2, Star: true, N: float64(g.N()), Seed: 2, MaxDraws: 600, CheckEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	if c.Accumulator() != stream.Ingester(acc) {
		t.Fatal("crawl does not expose the provided accumulator")
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if acc.Draws() != 600 {
		t.Fatalf("accumulator has %d draws, want 600", acc.Draws())
	}
	st := c.Status()
	if st.Running || st.Draws != 600 || st.Last == nil || st.Last.Draws != 600 {
		t.Fatalf("final status = %+v", st)
	}
}

// TestCrawlValidation covers the configuration guards.
func TestCrawlValidation(t *testing.T) {
	g := paperGraph(t)
	acc, err := stream.NewAccumulator(stream.Config{K: g.NumCategories(), Star: false})
	if err != nil {
		t.Fatal(err)
	}
	starSingle, err := stream.NewAccumulator(stream.Config{K: g.NumCategories(), Star: true})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := stream.NewPool(stream.Config{K: g.NumCategories(), Star: false})
	if err != nil {
		t.Fatal(err)
	}
	uncat, err := graph.NewBuilder(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		g   *graph.Graph
		acc stream.Ingester
		cfg Config
	}{
		"uncategorized graph":  {uncat, nil, Config{MaxDraws: 10}},
		"no budget":            {g, nil, Config{}},
		"negative walkers":     {g, nil, Config{Walkers: -1, MaxDraws: 10}},
		"negative thin":        {g, nil, Config{Thin: -1, MaxDraws: 10}},
		"negative burn-in":     {g, nil, Config{BurnIn: -1, MaxDraws: 10}},
		"bad level":            {g, nil, Config{Level: 1.5, MaxDraws: 10}},
		"bad engine":           {g, nil, Config{Engine: "magic", MaxDraws: 10}},
		"replication needs ≥2": {g, nil, Config{Engine: EngineReplication, MaxDraws: 10}},
		"star crawl into a single-lock accumulator": {g, starSingle, Config{
			Star: true, MaxDraws: 10}},
		"induced crawl into a pool": {g, pool, Config{MaxDraws: 10}},
		"unknown sampler":           {g, nil, Config{Sampler: "BFS", MaxDraws: 10}},
		"WRW without weights":       {g, nil, Config{Sampler: SamplerWRW, MaxDraws: 10}},
		"target cat out of range": {g, nil, Config{
			SizeTarget: 1, SizeCats: []int{99}, MaxDraws: 10}},
		"negative target": {g, nil, Config{SizeTarget: -1, MaxDraws: 10}},
		"walkers past the bound": {g, nil, Config{
			Walkers: MaxWalkers + 1, MaxDraws: 10}},
		"size target over no categories": {g, nil, Config{
			SizeTarget: 0.0001, SizeCats: []int{}, MaxDraws: 1000}},
		"within target over no categories": {g, nil, Config{
			WithinTarget: 0.0001, WithinCats: []int{}, MaxDraws: 1000}},
		"scenario mismatch with acc": {g, acc, Config{
			Star: true, MaxDraws: 10}},
		"bootstrap target on plain acc": {g, acc, Config{
			SizeTarget: 5, MaxDraws: 10}},
	} {
		if _, err := Start(tc.g, tc.acc, tc.cfg); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}

// TestCrawlSamplers drives every kernel end to end for a short budget —
// the walk logic matches internal/sample's samplers step for step, and all
// four must produce a servable snapshot.
func TestCrawlSamplers(t *testing.T) {
	g := paperGraph(t)
	nw := make([]float64, g.N())
	for i := range nw {
		nw[i] = 1 + float64(i%3)
	}
	for _, tc := range []Config{
		{Sampler: SamplerRW},
		{Sampler: SamplerMHRW},
		{Sampler: SamplerWRW, NodeWeight: nw},
		{Sampler: SamplerSWRW},
	} {
		tc.Walkers = 2
		tc.Star = true
		tc.N = float64(g.N())
		tc.Seed = 13
		tc.MaxDraws = 400
		tc.CheckEvery = 200
		c, err := Start(g, nil, tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Sampler, err)
		}
		res, err := c.Wait()
		if err != nil {
			t.Fatalf("%s: %v", tc.Sampler, err)
		}
		if res.Draws != 400 || res.Snapshot == nil {
			t.Fatalf("%s: draws = %d", tc.Sampler, res.Draws)
		}
	}
}
