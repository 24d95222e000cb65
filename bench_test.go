package repro

// One benchmark per table and figure of the paper (reduced-scale inputs; the
// full-scale regeneration lives in cmd/repro), plus micro-benchmarks of the
// estimation hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benches exercise exactly the code path that cmd/repro uses
// for the corresponding artifact, so their timings track the cost of the
// real reproduction.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/fbsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

// benchParams are the reduced-scale parameters shared by the per-figure
// benches.
func benchParams() exp.Params { return exp.Params{Quick: true, Reps: 2, Seed: 17} }

// benchPaperGraph caches a quick-scale §6.2.1 graph across benches.
var benchPaperGraph *graph.Graph

func getPaperGraph(b testing.TB) *graph.Graph {
	b.Helper()
	if benchPaperGraph == nil {
		g, err := gen.Paper(randx.New(3), gen.PaperConfig{
			Sizes:   []int64{60, 80, 100, 200, 500, 800, 1000, 2000, 3000, 5000},
			K:       20,
			Alpha:   0.5,
			Connect: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchPaperGraph = g
	}
	return benchPaperGraph
}

// BenchmarkTable1Datasets regenerates the Table 1 rows: build each dataset
// stand-in and measure |V|, |E|, k_V. (Community detection is benchmarked
// separately; here the smallest dataset carries it.)
func BenchmarkTable1Datasets(b *testing.B) {
	p := benchParams()
	d := exp.Dataset{Name: "bench-p2p", V: 4000, E: 9500, MeanDeg: 4.7, Dist: gen.PowerLaw, Shape: 2.4, Mixing: 0.6}
	for i := 0; i < b.N; i++ {
		g, err := exp.BuildDataset(p, d)
		if err != nil {
			b.Fatal(err)
		}
		if g.MeanDegree() <= 0 {
			b.Fatal("degenerate dataset")
		}
	}
}

// fig3MiniSweep runs the Fig. 3 protocol (UIS sweep on the §6.2.1 graph) for
// either the size or the weight estimators.
func fig3MiniSweep(b *testing.B, weights bool) {
	g := getPaperGraph(b)
	N := float64(g.N())
	truth := map[string]float64{}
	pair := [2]int32{8, 9}
	cut := g.EdgeCut(pair[0], pair[1])
	truthW := float64(cut) / (float64(g.CategorySize(pair[0])) * float64(g.CategorySize(pair[1])))
	for c := 0; c < g.NumCategories(); c++ {
		truth[fmt.Sprintf("si/%d", c)] = float64(g.CategorySize(int32(c)))
		truth[fmt.Sprintf("ss/%d", c)] = float64(g.CategorySize(int32(c)))
	}
	truth["wi"] = truthW
	truth["ws"] = truthW
	cfg := eval.Config{Seed: 5, Reps: 2, Sizes: []int{300, 1000, 3000}}
	for i := 0; i < b.N; i++ {
		_, err := eval.Sweep(cfg, truth,
			func(r *rand.Rand, maxSize int) (*sample.Sample, error) {
				return sample.UIS{}.Sample(r, g, maxSize)
			},
			func(s *sample.Sample) (map[string]float64, error) {
				out := map[string]float64{}
				oi, err := sample.ObserveInduced(g, s)
				if err != nil {
					return nil, err
				}
				os, err := sample.ObserveStar(g, s)
				if err != nil {
					return nil, err
				}
				si := core.SizeInduced(oi, N)
				ss, err := core.SizeStar(os, N)
				if err != nil {
					return nil, err
				}
				for c := 0; c < g.NumCategories(); c++ {
					out[fmt.Sprintf("si/%d", c)] = si[c]
					out[fmt.Sprintf("ss/%d", c)] = ss[c]
				}
				if weights {
					wi, err := core.WeightsInduced(oi)
					if err != nil {
						return nil, err
					}
					ws, err := core.WeightsStar(os, ss)
					if err != nil {
						return nil, err
					}
					out["wi"] = wi.Get(pair[0], pair[1])
					out["ws"] = ws.Get(pair[0], pair[1])
				} else {
					out["wi"], out["ws"] = truthW, truthW
				}
				return out, nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3SizeUIS regenerates the Fig. 3 top row (size estimators).
func BenchmarkFig3SizeUIS(b *testing.B) { fig3MiniSweep(b, false) }

// BenchmarkFig3WeightUIS regenerates the Fig. 3 bottom row (weight
// estimators).
func BenchmarkFig3WeightUIS(b *testing.B) { fig3MiniSweep(b, true) }

// BenchmarkFig4Empirical regenerates one Fig. 4 panel pair (median NRMSE
// under UIS/RW/S-WRW on an empirical-graph stand-in with spectral
// categories).
func BenchmarkFig4Empirical(b *testing.B) {
	p := benchParams()
	d := exp.Dataset{Name: "bench-social", V: 1500, E: 9000, MeanDeg: 12, Dist: gen.PowerLaw, Shape: 2.5, Mixing: 0.4}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig4Datasets(p, []exp.Dataset{d}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFBGraph caches a small 2009-style substrate.
var benchFBGraph *graph.Graph

func getFBGraph(b *testing.B) *graph.Graph {
	b.Helper()
	if benchFBGraph == nil {
		cfg := fbsim.DefaultConfig()
		cfg.N = 10000
		cfg.Regions = 60
		g, err := fbsim.Build2009(randx.New(9), cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchFBGraph = g
	}
	return benchFBGraph
}

// BenchmarkTable2Crawls regenerates the Table 2 rows: collect a multi-walk
// crawl dataset and measure its categorized-sample share.
func BenchmarkTable2Crawls(b *testing.B) {
	g := getFBGraph(b)
	for i := 0; i < b.N; i++ {
		c, err := fbsim.NewCrawl(randx.New(uint64(i)+1), g, sample.NewRW(500), "RW09", 4, 1500)
		if err != nil {
			b.Fatal(err)
		}
		if f := c.CategorizedFraction(g); f <= 0 {
			b.Fatal("no categorized draws")
		}
	}
}

// BenchmarkFig5SamplesPerCategory regenerates the Fig. 5 curves.
func BenchmarkFig5SamplesPerCategory(b *testing.B) {
	g := getFBGraph(b)
	c, err := fbsim.NewCrawl(randx.New(2), g, sample.NewRW(500), "RW09", 4, 1500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := c.SamplesPerCategory(g)
		if len(counts) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig6Facebook regenerates one Fig. 6 panel (the §7.2 NRMSE
// methodology on a multi-walk crawl).
func BenchmarkFig6Facebook(b *testing.B) {
	g := getFBGraph(b)
	c, err := fbsim.NewCrawl(randx.New(3), g, sample.NewRW(500), "RW09", 4, 2000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fbsim.Evaluate(g, c, fbsim.EvalConfig{
			Sizes: []int{500, 2000}, TopCategories: 20, MaxPairs: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7CategoryGraphs regenerates the Fig. 7 pipeline: estimate a
// category graph from a crawl, merge it to countries, and lay it out.
func BenchmarkFig7CategoryGraphs(b *testing.B) {
	g := getFBGraph(b)
	s, err := sample.NewRW(500).Sample(randx.New(4), g, 8000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := sample.ObserveStar(g, s)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Estimate(o, core.Options{N: float64(g.N())})
		if err != nil {
			b.Fatal(err)
		}
		regions, err := CategoryGraphFromEstimate(res, g.CategoryNames())
		if err != nil {
			b.Fatal(err)
		}
		countries := regions.Merge(fbsim.CountryOf)
		countries.Layout(randx.New(5), 50)
	}
}

// BenchmarkAblationWeightPlugin measures the star-weight estimator with its
// three size plug-ins (the DESIGN.md ablation) on one fixed sample.
func BenchmarkAblationWeightPlugin(b *testing.B) {
	g := getPaperGraph(b)
	s, err := sample.NewRW(500).Sample(randx.New(6), g, 5000)
	if err != nil {
		b.Fatal(err)
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		b.Fatal(err)
	}
	N := float64(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mk := range []func() ([]float64, error){
			func() ([]float64, error) { return core.SizeInduced(o, N), nil },
			func() ([]float64, error) { return core.SizeStar(o, N) },
			func() ([]float64, error) { return core.SizeStarPooledDegree(o, N) },
		} {
			sizes, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.WeightsStar(o, sizes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- micro-benchmarks of the hot paths ----------------------------------

func BenchmarkRWSample100k(b *testing.B) {
	g := getPaperGraph(b)
	r := randx.New(7)
	w := sample.NewRW(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Sample(r, g, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSWRWSample10k(b *testing.B) {
	g := getPaperGraph(b)
	r := randx.New(8)
	w, err := sample.NewSWRW(g, sample.SWRWConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Sample(r, g, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveStar10k(b *testing.B) {
	g := getPaperGraph(b)
	s, err := sample.UIS{}.Sample(randx.New(9), g, 10000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.ObserveStar(g, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveInduced10k(b *testing.B) {
	g := getPaperGraph(b)
	s, err := sample.UIS{}.Sample(randx.New(10), g, 10000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.ObserveInduced(g, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateStar10k(b *testing.B) {
	g := getPaperGraph(b)
	s, err := sample.NewRW(500).Sample(randx.New(11), g, 10000)
	if err != nil {
		b.Fatal(err)
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Estimate(o, core.Options{N: float64(g.N())}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPopulationSize(b *testing.B) {
	g := getPaperGraph(b)
	wis, err := sample.NewDegreeWIS(g)
	if err != nil {
		b.Fatal(err)
	}
	s, err := wis.Sample(randx.New(12), g, 5000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PopulationSize(s)
	}
}

func BenchmarkCommunityDetect(b *testing.B) {
	r := randx.New(13)
	g, err := gen.Social(r, gen.SocialConfig{
		N: 3000, MeanDeg: 10, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 12, CommZipf: 0.8, Mixing: 0.3, Connect: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labels, count := community.Detect(randx.New(uint64(i)), g, community.Config{MaxCommunities: 15})
		if count < 1 || len(labels) != g.N() {
			b.Fatal("detection failed")
		}
	}
}

func BenchmarkGraphBuild1MEdges(b *testing.B) {
	r := randx.New(14)
	type edge struct{ u, v int32 }
	edges := make([]edge, 1_000_000)
	const n = 100_000
	for i := range edges {
		edges[i] = edge{int32(r.IntN(n)), int32(r.IntN(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := graph.NewBuilder(n)
		for _, e := range edges {
			bld.AddEdge(e.u, e.v)
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- streaming subsystem benchmarks -------------------------------------

// streamBenchRecords pre-builds a star record stream of n RW draws on the
// cached paper graph, plus the equivalent batch sample.
func streamBenchRecords(b *testing.B, n int) ([]sample.NodeObservation, *sample.Sample, *graph.Graph) {
	b.Helper()
	return scenarioBenchRecords(b, n, true)
}

// scenarioBenchRecords is streamBenchRecords for either scenario: with star
// false the records carry induced peers instead of star data.
func scenarioBenchRecords(b *testing.B, n int, star bool) ([]sample.NodeObservation, *sample.Sample, *graph.Graph) {
	b.Helper()
	g := getPaperGraph(b)
	s, err := sample.NewRW(500).Sample(randx.New(101), g, n)
	if err != nil {
		b.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, star)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		recs[i] = so.Observe(v, s.Weight(i))
	}
	return recs, s, g
}

// BenchmarkStreamIngest measures the cost of feeding a full record stream
// into a fresh accumulator — the daemon's write path.
func BenchmarkStreamIngest(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		recs, _, g := streamBenchRecords(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc, err := stream.NewAccumulator(stream.Config{
					K: g.NumCategories(), Star: true, N: float64(g.N()),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := acc.IngestBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamIngestLocal measures concurrent ingest throughput: the
// acceptance benchmark of the epoch-merge work. W writer goroutines split
// the record stream; under "single-lock" they all contend on the
// Accumulator's one mutex, under "epoch" each owns a stream.Local whose
// per-record path touches no shared state and publishes at the default
// auto-flush cadence. On a multi-core machine epoch throughput scales
// near-linearly 1 -> 8 -> 32 writers while the single lock flatlines (a
// 1-core runner can only show the removed lock hand-off and the batched
// flush math; CI runs the scaling gate). The "-sparse" rows feed the same
// stream with every node id mapped through a fixed bijection of the int32
// range, so the node directory's cost off the graph's dense ids [0, N)
// shows beside the dense rows.
func BenchmarkStreamIngestLocal(b *testing.B) {
	recs, _, g := streamBenchRecords(b, 100_000)
	sparse := make([]sample.NodeObservation, len(recs))
	for i, rec := range recs {
		rec.Node = int32(uint32(rec.Node)*0x9e3779b1 ^ 0x5bd1e995)
		sparse[i] = rec
	}
	cfg := stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N())}
	type row struct {
		impl    string
		writers int
	}
	var rows []row
	for _, impl := range []string{"single-lock", "epoch"} {
		for _, writers := range []int{1, 8, 32} {
			rows = append(rows, row{impl, writers})
		}
	}
	rows = append(rows, row{"single-lock-sparse", 1}, row{"epoch-sparse", 8})
	for _, r := range rows {
		impl, writers, recs := r.impl, r.writers, recs
		if strings.HasSuffix(impl, "-sparse") {
			recs = sparse
		}
		b.Run(fmt.Sprintf("%s/writers=%d", impl, writers), func(b *testing.B) {
			var single *stream.Accumulator
			var ea *stream.EpochAccumulator
			var err error
			if strings.HasPrefix(impl, "epoch") {
				ea, err = stream.NewEpochAccumulator(cfg, 0)
			} else {
				single, err = stream.NewAccumulator(cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					// Each writer walks the record stream from its own
					// prime offset, so the hot loop shares no state
					// beyond the accumulator under test.
					i := w * 7919
					if ea != nil {
						l := ea.NewLocal()
						defer l.Flush()
						for ; n > 0; n-- {
							if err := l.Ingest(recs[i%len(recs)]); err != nil {
								b.Error(err)
								return
							}
							i++
						}
						return
					}
					for ; n > 0; n-- {
						if err := single.Ingest(recs[i%len(recs)]); err != nil {
							b.Error(err)
							return
						}
						i++
					}
				}(w, n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkStreamIngestBootstrapSparse measures the bootstrap overhead of
// the write path: one writer-local epoch over an accumulator with B
// replicate sums. The epoch design batches each node's replicate update
// (one pass per distinct node per flush instead of one B-loop per record),
// and that pass walks the node's dense weight row without a per-replicate
// branch, so B=200 costs a small multiple of B=0 rather than the ~50x of
// the per-record design. ns/op is per ingested record, flushes included.
func BenchmarkStreamIngestBootstrapSparse(b *testing.B) {
	recs, _, g := streamBenchRecords(b, 100_000)
	for _, B := range []int{0, 50, 200} {
		b.Run(fmt.Sprintf("B=%d", B), func(b *testing.B) {
			cfg := stream.Config{
				K: g.NumCategories(), Star: true, N: float64(g.N()),
				Replicates: uncert.Config{B: B, Seed: 11},
			}
			ea, err := stream.NewEpochAccumulator(cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			l := ea.NewLocal()
			defer l.Flush()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Ingest(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSumsMerge measures the merge primitive behind epoch flushes and
// multi-walk pooling: folding P independently accumulated walk sums into
// one estimate, O(P·K² + pairs).
func BenchmarkSumsMerge(b *testing.B) {
	_, s, g := streamBenchRecords(b, 50_000)
	const parts = 8
	sums := make([]*core.Sums, parts)
	for p := range sums {
		part := &sample.Sample{}
		for i := p; i < s.Len(); i += parts {
			part.Nodes = append(part.Nodes, s.Nodes[i])
			part.Weights = append(part.Weights, s.Weight(i))
		}
		o, err := sample.ObserveStar(g, part)
		if err != nil {
			b.Fatal(err)
		}
		sums[p] = core.SumsFromObservation(o)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := core.NewSums(g.NumCategories(), true)
		for _, s := range sums {
			if err := merged.Merge(s); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := merged.Estimate(core.Options{N: float64(g.N())}); err != nil {
			b.Fatal(err)
		}
	}
}

// wireBenchState builds the state a loaded worker would export: ~5k star
// draws with a 200-replicate bootstrap — the payload shape the distributed
// tier ships on every coordinator poll.
func wireBenchState(b *testing.B) *stream.State {
	b.Helper()
	recs, _, g := streamBenchRecords(b, 5_000)
	acc, err := stream.NewAccumulator(stream.Config{
		K: g.NumCategories(), Star: true, N: float64(g.N()),
		Replicates: uncert.Config{B: 200, Seed: 7},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := acc.IngestBatch(recs); err != nil {
		b.Fatal(err)
	}
	st, err := acc.Export()
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkSumsEncode measures serializing a worker's sufficient statistics
// (sums + bootstrap replicates) into the wire format — the per-poll cost a
// worker pays to answer GET /sums.
func BenchmarkSumsEncode(b *testing.B) {
	st := wireBenchState(b)
	buf, err := wire.Encode(st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSumsDecode measures parsing and validating the same payload —
// the per-worker, per-round cost a coordinator pays.
func BenchmarkSumsDecode(b *testing.B) {
	buf, err := wire.Encode(wireBenchState(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestDecode measures the daemon's full body-to-accumulator
// ingest path for one 10k-record batch in both wire encodings: decode the
// request body and fold every record into a reused epoch Local — exactly
// what POST /ingest does per request. JSON pays the parser and a fresh
// record slice per body; the TOPOREC1 iterator re-walks the validated frame
// in place and reuses its decode scratch across records, so after warmup
// the binary path runs the whole loop without allocating (pinned by
// TestBinaryDecodeToLocalZeroAlloc and CI's -benchmem gate).
func BenchmarkIngestDecode(b *testing.B) {
	recs, _, g := streamBenchRecords(b, 10_000)
	cfg := stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N())}
	jsonBody, err := json.Marshal(recs)
	if err != nil {
		b.Fatal(err)
	}
	binBody, err := wire.EncodeRecords(recs)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encoding=json", func(b *testing.B) {
		ea, err := stream.NewEpochAccumulator(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		l := ea.NewLocal()
		defer l.Flush()
		b.SetBytes(int64(len(jsonBody)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var batch []sample.NodeObservation
			if err := json.Unmarshal(jsonBody, &batch); err != nil {
				b.Fatal(err)
			}
			for _, rec := range batch {
				if err := l.Ingest(rec); err != nil {
					b.Fatal(err)
				}
			}
			l.Flush()
		}
	})

	b.Run("encoding=binary", func(b *testing.B) {
		ea, err := stream.NewEpochAccumulator(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		l := ea.NewLocal()
		defer l.Flush()
		it, err := wire.NewRecordIter(binBody)
		if err != nil {
			b.Fatal(err)
		}
		var rec sample.NodeObservation
		// One warmup pass grows the iterator scratch, the Local's node
		// table and the shared directory, so the timed loop is the
		// steady-state request cost.
		for it.Next(&rec) {
			if err := l.Ingest(rec); err != nil {
				b.Fatal(err)
			}
		}
		l.Flush()
		b.SetBytes(int64(len(binBody)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := it.Reset(binBody); err != nil {
				b.Fatal(err)
			}
			for it.Next(&rec) {
				if err := l.Ingest(rec); err != nil {
					b.Fatal(err)
				}
			}
			l.Flush()
		}
	})
}

// BenchmarkIngestDecodeBodies mirrors the daemon's star-binary-ingest
// traffic in process: 500-record TOPOREC1 bodies cut from one random walk
// on the paper graph, each decoded into a reused Local and flushed — one
// POST /ingest per op. Star data rides only on a node's first draw, and the
// directory is warmed with every body first, so each timed body is mostly
// distinct re-drawn nodes whose published entries are already star-seen:
// the steady state of a long crawl, where the per-node directory work
// dominates.
func BenchmarkIngestDecodeBodies(b *testing.B) {
	const batch, bodies = 500, 100
	recs, _, g := streamBenchRecords(b, batch*bodies)
	encoded := make([][]byte, 0, bodies)
	for lo := 0; lo < len(recs); lo += batch {
		body, err := wire.EncodeRecords(recs[lo : lo+batch])
		if err != nil {
			b.Fatal(err)
		}
		encoded = append(encoded, body)
	}
	ea, err := stream.NewEpochAccumulator(stream.Config{
		K: g.NumCategories(), Star: true, N: float64(g.N()),
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	l := ea.NewLocal()
	defer l.Flush()
	it := new(wire.RecordIter)
	var rec sample.NodeObservation
	ingest := func(body []byte) {
		if err := it.Reset(body); err != nil {
			b.Fatal(err)
		}
		for it.Next(&rec) {
			if err := l.Ingest(rec); err != nil {
				b.Fatal(err)
			}
		}
		l.Flush()
	}
	for _, body := range encoded {
		ingest(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest(encoded[i%len(encoded)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
}

// TestBinaryDecodeToLocalZeroAlloc pins the acceptance bar of the TOPOREC1
// fast path: once the iterator scratch, the Local's epoch table and the
// shared directory have warmed up, decoding a full batch and ingesting
// every record allocates nothing — zero allocations per record, not merely
// few.
func TestBinaryDecodeToLocalZeroAlloc(t *testing.T) {
	g := getPaperGraph(t)
	s, err := sample.NewRW(500).Sample(randx.New(101), g, 4096)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		recs[i] = so.Observe(v, s.Weight(i))
	}
	body, err := wire.EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := stream.NewEpochAccumulator(stream.Config{
		K: g.NumCategories(), Star: true, N: float64(g.N()),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := ea.NewLocal()
	defer l.Flush()
	it, err := wire.NewRecordIter(body)
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		if err := it.Reset(body); err != nil {
			t.Fatal(err)
		}
		var rec sample.NodeObservation
		for it.Next(&rec) {
			if err := l.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
		l.Flush()
	}
	for i := 0; i < 3; i++ {
		pass() // warm up every growth path before measuring
	}
	if avg := testing.AllocsPerRun(10, pass); avg != 0 {
		t.Fatalf("decode-to-Local path allocates %.2f times per 4096-record batch, want 0", avg)
	}
}

// BenchmarkStreamSnapshot compares the incremental read path (Snapshot on a
// loaded accumulator, O(K² + pairs)) against recomputing the same estimate
// from scratch (re-observe the sample, rebuild all sums) — the cost every
// poll would pay without the streaming subsystem.
func BenchmarkStreamSnapshot(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		recs, s, g := streamBenchRecords(b, n)
		opts := core.Options{N: float64(g.N())}
		acc, err := stream.NewAccumulator(stream.Config{
			K: g.NumCategories(), Star: true, N: float64(g.N()),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := acc.IngestBatch(recs); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/incremental", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := acc.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/batch-recompute", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := sample.ObserveStar(g, s)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Estimate(o, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamIngestBootstrap quantifies what the streaming bootstrap
// costs on the write path: ingesting the same 10k-record star stream with
// B replicate sums updated per draw (B=0 is the no-bootstrap baseline; 50
// buys standard errors, 200 stable 95% percentile CIs). The induced rows
// ingest a 10k-record induced RW stream, where every re-draw also replays
// the mass of each incident observed edge into the replicates.
func BenchmarkStreamIngestBootstrap(b *testing.B) {
	run := func(name string, recs []sample.NodeObservation, g *graph.Graph, star bool, B int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc, err := stream.NewAccumulator(stream.Config{
					K: g.NumCategories(), Star: star, N: float64(g.N()),
					Replicates: uncert.Config{B: B, Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := acc.IngestBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	recs, _, g := streamBenchRecords(b, 10_000)
	for _, B := range []int{0, 50, 200} {
		run(fmt.Sprintf("B=%d", B), recs, g, true, B)
	}
	induced, _, g := scenarioBenchRecords(b, 10_000, false)
	for _, B := range []int{0, 200} {
		run(fmt.Sprintf("induced/B=%d", B), induced, g, false, B)
	}
}

// BenchmarkStreamSnapshotBootstrap measures the read path with confidence
// intervals: the O(B·K² + B·pairs) replicate estimation every CI-carrying
// snapshot performs on a loaded accumulator.
func BenchmarkStreamSnapshotBootstrap(b *testing.B) {
	recs, _, g := streamBenchRecords(b, 10_000)
	for _, B := range []int{0, 50, 200} {
		acc, err := stream.NewAccumulator(stream.Config{
			K: g.NumCategories(), Star: true, N: float64(g.N()),
			Replicates: uncert.Config{B: B, Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := acc.IngestBatch(recs); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("B=%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap, err := acc.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if B > 0 && snap.Boot == nil {
					b.Fatal("snapshot lost its bootstrap")
				}
			}
		})
	}
}

// BenchmarkSamplerStudy regenerates the extension experiment (RW vs
// Frontier vs BFS) at reduced scale.
func BenchmarkSamplerStudy(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := exp.SamplerStudy(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrawlWalkers measures the adaptive crawl controller end to end:
// W concurrent walkers stream a fixed draw budget (no CI target, so every
// configuration does identical estimation work) into an accumulator,
// checkpointing on a fixed cadence. Every row is a star crawl, so each
// walker ingests into its own writer-local epoch of an epoch-merged
// accumulator; the 1-walker row is the serial baseline, and the 4- and
// 8-walker rows show how far walker parallelism carries once ingest takes
// no shared lock (run with -cpu 4,8 on a multi-core machine).
// Those rows run without bootstrap replicates. The bootstrap=100 row
// mirrors topobench's crawl-budget workload — 2 RW walkers, burn-in 1000,
// 10k draws, B=100, a checkpoint every 2000 draws — so it prices the
// replicate kernel and the star observer on the crawl's per-draw path.
func BenchmarkCrawlWalkers(b *testing.B) {
	g := getPaperGraph(b)
	for _, ws := range []struct{ walkers, boot, burnIn, draws, check int }{
		{1, 0, 100, 20_000, 5000},
		{4, 0, 100, 20_000, 5000},
		{8, 0, 100, 20_000, 5000},
		{2, 100, 1000, 10_000, 2000},
	} {
		name := fmt.Sprintf("walkers=%d", ws.walkers)
		if ws.boot > 0 {
			name += fmt.Sprintf("/bootstrap=%d", ws.boot)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Without CI targets the crawl builds its accumulator
				// without replicates, so the bootstrap row passes one.
				var acc stream.Ingester
				if ws.boot > 0 {
					ea, err := stream.NewEpochAccumulator(stream.Config{
						K: g.NumCategories(), Star: true, N: float64(g.N()),
						Replicates: uncert.Config{B: ws.boot, Seed: uint64(i + 1)},
					}, 0)
					if err != nil {
						b.Fatal(err)
					}
					acc = ea
				}
				c, err := crawl.Start(g, acc, crawl.Config{
					Walkers: ws.walkers, Star: true, N: float64(g.N()),
					Seed: uint64(i + 1), BurnIn: ws.burnIn,
					MaxDraws: ws.draws, CheckEvery: ws.check,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Wait()
				if err != nil {
					b.Fatal(err)
				}
				if res.Draws != ws.draws {
					b.Fatalf("draws = %d", res.Draws)
				}
			}
			b.ReportMetric(float64(ws.draws*b.N)/b.Elapsed().Seconds(), "draws/s")
		})
	}
}

// BenchmarkCrawlCheckpoint isolates the stopping-rule evaluation: the cost
// of one bootstrap-engine checkpoint (snapshot + B·K² replicate estimates +
// half-width extraction) at B=100 on the paper graph — the recurring price
// of adaptivity, paid once per CheckEvery draws.
func BenchmarkCrawlCheckpoint(b *testing.B) {
	g := getPaperGraph(b)
	c, err := crawl.Start(g, nil, crawl.Config{
		Walkers: 2, Star: true, N: float64(g.N()), Seed: 5,
		Bootstrap:  uncert.Config{B: 100, Seed: 5},
		SizeTarget: 1e-12, // unreachable: the crawl always runs to budget
		MaxDraws:   5000, CheckEvery: 5000,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		b.Fatal(err)
	}
	acc := c.Accumulator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := acc.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		for cat := 0; cat < g.NumCategories(); cat++ {
			_ = snap.Boot.SizeCI(cat, 0.95)
			_ = snap.Boot.WithinCI(cat, 0.95)
		}
	}
}

// benchPacked serializes the paper graph once and reopens it with the given
// cache configuration.
var benchPackBytes []byte

func getPackedGraph(b *testing.B, opt graph.PackOptions) *graph.Packed {
	b.Helper()
	if benchPackBytes == nil {
		var buf bytes.Buffer
		if err := graph.WritePack(&buf, getPaperGraph(b)); err != nil {
			b.Fatal(err)
		}
		benchPackBytes = buf.Bytes()
	}
	p, err := graph.OpenPack(bytes.NewReader(benchPackBytes), int64(len(benchPackBytes)), opt)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkCSRStep prices one random-walk transition (Neighbors + draw +
// Weight, the walk layer's hot path) across the graph backends: the
// in-memory CSR, the packed out-of-core CSR through its LRU block cache,
// and the packed CSR with caching disabled (every access pays a ReaderAt
// call) — the three points that bound what out-of-core crawling costs.
func BenchmarkCSRStep(b *testing.B) {
	backends := []struct {
		name string
		src  func(b *testing.B) graph.Source
	}{
		{"memory", func(b *testing.B) graph.Source { return getPaperGraph(b) }},
		{"packed-cached", func(b *testing.B) graph.Source {
			return getPackedGraph(b, graph.PackOptions{})
		}},
		{"packed-uncached", func(b *testing.B) graph.Source {
			return getPackedGraph(b, graph.PackOptions{CacheBlocks: -1})
		}},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			src := be.src(b)
			st := sample.NewRWStepper(src)
			r := randx.New(7)
			cur, err := sample.RandomStart(r, src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur = st.Step(r, cur)
				_ = st.Weight(cur)
			}
		})
	}
}

// BenchmarkCrawlCSR runs the full adaptive crawl controller (4 walkers,
// fixed 20k-draw budget, star scenario) over the in-memory and the packed
// backend — the end-to-end price of out-of-core crawling, block-cache
// contention included.
func BenchmarkCrawlCSR(b *testing.B) {
	backends := []struct {
		name string
		src  func(b *testing.B) graph.Source
	}{
		{"memory", func(b *testing.B) graph.Source { return getPaperGraph(b) }},
		{"packed", func(b *testing.B) graph.Source {
			return getPackedGraph(b, graph.PackOptions{})
		}},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			src := be.src(b)
			for i := 0; i < b.N; i++ {
				c, err := crawl.Start(src, nil, crawl.Config{
					Walkers: 4, Star: true, N: float64(src.NumNodes()),
					Seed: uint64(i + 1), BurnIn: 100,
					MaxDraws: 20_000, CheckEvery: 5000,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Wait()
				if err != nil {
					b.Fatal(err)
				}
				if res.Draws != 20_000 {
					b.Fatalf("draws = %d", res.Draws)
				}
			}
			b.ReportMetric(20_000*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
		})
	}
}
