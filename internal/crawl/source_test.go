package crawl

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
)

// crawlGraph builds the categorized test graph every backend-equivalence
// test crawls.
func crawlGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Paper(randx.New(9), gen.PaperConfig{
		Sizes: []int64{40, 60, 100, 200, 400}, K: 8, Alpha: 0.4, Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// packedOf round-trips g through the .pack format.
func packedOf(t *testing.T, g *graph.Graph, opt graph.PackOptions) *graph.Packed {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WritePack(&buf, g); err != nil {
		t.Fatal(err)
	}
	p, err := graph.OpenPack(bytes.NewReader(buf.Bytes()), int64(buf.Len()), opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runCrawl crawls src to completion under cfg and returns the result.
func runCrawl(t *testing.T, src graph.Source, cfg Config) *Result {
	t.Helper()
	c, err := Start(src, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSnapshotsEqual compares every estimand of two snapshots to within
// tol (the float-reassociation budget of concurrent ingestion).
func assertSnapshotsEqual(t *testing.T, a, b *stream.Snapshot, tol float64) {
	t.Helper()
	if a.Draws != b.Draws || a.Distinct != b.Distinct {
		t.Fatalf("draws/distinct: %d/%d vs %d/%d", a.Draws, a.Distinct, b.Draws, b.Distinct)
	}
	close := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) == math.IsNaN(y)
		}
		return math.Abs(x-y) <= tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	for c := range a.Result.Sizes {
		if !close(a.Result.Sizes[c], b.Result.Sizes[c]) {
			t.Errorf("size[%d]: %g vs %g", c, a.Result.Sizes[c], b.Result.Sizes[c])
		}
		if !close(a.Within[c], b.Within[c]) {
			t.Errorf("within[%d]: %g vs %g", c, a.Within[c], b.Within[c])
		}
	}
	k := len(a.Result.Sizes)
	for x := 0; x < k; x++ {
		for y := x + 1; y < k; y++ {
			if !close(a.Result.Weights.Get(int32(x), int32(y)), b.Result.Weights.Get(int32(x), int32(y))) {
				t.Errorf("weight[%d,%d]: %g vs %g", x, y,
					a.Result.Weights.Get(int32(x), int32(y)), b.Result.Weights.Get(int32(x), int32(y)))
			}
		}
	}
}

// TestCrawlBackendEquivalence is the acceptance gate of the Source
// refactor: all four walk kernels, driven by the concurrent crawl
// controller with the same seeds, produce identical estimates (≤ 1e-9)
// over the in-memory backend, the packed out-of-core backend, and the
// packed backend behind the rate-limited wrapper.
func TestCrawlBackendEquivalence(t *testing.T) {
	g := crawlGraph(t)
	kernels := []struct {
		name string
		cfg  Config
	}{
		{"RW", Config{Sampler: SamplerRW}},
		{"MHRW", Config{Sampler: SamplerMHRW}},
		{"WRW", Config{Sampler: SamplerWRW, NodeWeight: degreeWeights(g)}},
		{"S-WRW", Config{Sampler: SamplerSWRW}},
	}
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			cfg := kc.cfg
			cfg.Walkers = 3
			cfg.Star = true
			cfg.Seed = 17
			cfg.BurnIn = 200
			cfg.MaxDraws = 6000
			cfg.CheckEvery = 1500
			cfg.N = float64(g.N())

			mem := runCrawl(t, g, cfg)
			packed := runCrawl(t, packedOf(t, g, graph.PackOptions{BlockSize: 256, CacheBlocks: 32}), cfg)
			limited := runCrawl(t, graph.NewRateLimited(packedOf(t, g, graph.PackOptions{}), graph.RateLimit{}), cfg)

			if mem.Draws != packed.Draws || mem.Draws != limited.Draws {
				t.Fatalf("draw counts differ: mem %d, packed %d, limited %d", mem.Draws, packed.Draws, limited.Draws)
			}
			assertSnapshotsEqual(t, mem.Snapshot, packed.Snapshot, 1e-9)
			assertSnapshotsEqual(t, mem.Snapshot, limited.Snapshot, 1e-9)
			if mem.Metered || packed.Metered {
				t.Fatal("unmetered backends report Metered")
			}
			if !limited.Metered || limited.Queries == 0 {
				t.Fatalf("rate-limited crawl reports Metered=%v Queries=%d", limited.Metered, limited.Queries)
			}
		})
	}
}

// TestCrawlBackendEquivalenceInduced repeats the gate under the induced
// scenario (shared observer, single-lock accumulator).
func TestCrawlBackendEquivalenceInduced(t *testing.T) {
	g := crawlGraph(t)
	cfg := Config{
		Sampler: SamplerRW, Walkers: 2, Star: false, Seed: 23,
		BurnIn: 100, MaxDraws: 4000, CheckEvery: 1000, N: float64(g.N()),
	}
	mem := runCrawl(t, g, cfg)
	packed := runCrawl(t, packedOf(t, g, graph.PackOptions{}), cfg)
	assertSnapshotsEqual(t, mem.Snapshot, packed.Snapshot, 1e-9)
}

func degreeWeights(g *graph.Graph) []float64 {
	w := make([]float64, g.N())
	for v := range w {
		w[v] = 1 + float64(g.Degree(int32(v)))
	}
	return w
}

// TestCrawlQueriesPerJob pins that query accounting is per job, not the
// wrapper's global counter: successive crawls share one backend (the
// topoestd pattern), and each must report only its own spend.
func TestCrawlQueriesPerJob(t *testing.T) {
	g := crawlGraph(t)
	src := graph.NewRateLimited(g, graph.RateLimit{CacheNodes: -1})
	cfg := Config{
		Sampler: SamplerRW, Walkers: 2, Star: true, Seed: 31,
		BurnIn: 50, MaxDraws: 1000, CheckEvery: 500, N: float64(g.N()),
	}
	first := runCrawl(t, src, cfg)
	second := runCrawl(t, src, cfg)
	if !first.Metered || !second.Metered {
		t.Fatal("metered backend not detected")
	}
	total := src.Queries()
	if first.Queries+second.Queries != total {
		t.Fatalf("per-job queries %d + %d do not partition the global counter %d",
			first.Queries, second.Queries, total)
	}
	if second.Queries > first.Queries*3/2 || first.Queries > second.Queries*3/2 {
		t.Fatalf("same-config jobs spent very different queries: %d vs %d (cumulative leak?)",
			first.Queries, second.Queries)
	}
}

// TestCrawlStartErrNoEdges pins that the controller surfaces the sample
// package's typed sentinel for unwalkable graphs, so a server can map it to
// a "bad graph" diagnosis instead of a generic failure.
func TestCrawlStartErrNoEdges(t *testing.T) {
	g, err := graph.NewBuilder(30).Build()
	if err != nil {
		t.Fatal(err)
	}
	cat := make([]int32, g.N())
	if err := g.SetCategories(cat, 1, nil); err != nil {
		t.Fatal(err)
	}
	_, err = Start(g, nil, Config{MaxDraws: 100, Star: true})
	if !errors.Is(err, sample.ErrNoEdges) {
		t.Fatalf("Start on an edgeless graph: %v, want ErrNoEdges", err)
	}
}

// TestCrawlStartNilSource pins the typed-nil guard: a nil *graph.Graph
// wrapped in the Source interface must yield the clean error, not a panic
// inside NumCategories.
func TestCrawlStartNilSource(t *testing.T) {
	for name, src := range map[string]graph.Source{
		"untyped nil":      nil,
		"typed nil":        (*graph.Graph)(nil),
		"typed nil packed": (*graph.Packed)(nil),
	} {
		if _, err := Start(src, nil, Config{MaxDraws: 100}); err == nil {
			t.Fatalf("Start(%s) succeeded, want the categorized-graph error", name)
		}
	}
}

// catSource overrides one node's category, standing in for a .pack file
// whose categories are read unvalidated.
type catSource struct {
	graph.Source
	v, cat int32
}

func (c catSource) Category(u int32) int32 {
	if u == c.v {
		return c.cat
	}
	return c.Source.Category(u)
}

// TestCrawlRejectsBadNeighborCategory pins that a backend category outside
// [−1, K) ends a star crawl with an error from Wait, not a panic in a
// walker: the walker first observes a neighbor of the bad node, and the
// record check rejects the bad category that record carries.
func TestCrawlRejectsBadNeighborCategory(t *testing.T) {
	b := graph.NewBuilder(6)
	for i := int32(0); i < 6; i++ {
		b.AddEdge(i, (i+1)%6)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCategories([]int32{0, 0, 1, 1, 2, 2}, 3, nil); err != nil {
		t.Fatal(err)
	}
	c, err := Start(catSource{g, 5, 3}, nil, Config{Star: true, Seed: 1, MaxDraws: 100})
	if err != nil {
		t.Fatal(err)
	}
	const want = "neighbor category 3 outside [0,3)"
	if _, err := c.Wait(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Wait: %v, want an error containing %q", err, want)
	}
}
