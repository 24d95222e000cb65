// Package repro estimates the coarse-grained topology of a large graph from
// a probability sample of its nodes, implementing Kurant, Gjoka, Wang,
// Almquist, Butts & Markopoulou, "Coarse-Grained Topology Estimation via
// Graph Sampling" (arXiv:1105.5488, SIGCOMM WOSN 2012).
//
// # Problem
//
// The nodes of a graph G are partitioned into categories (countries,
// colleges, communities, ...). The category graph GC has one node per
// category, and the weight of edge {A,B} is the probability that a random
// member of A is connected to a random member of B:
//
//	w(A,B) = |E_{A,B}| / (|A|·|B|)            (Eq. 3)
//
// This package estimates the category sizes |A| and the weights w(A,B) from
// a sample of nodes collected by independence sampling (UIS/WIS) or by
// crawling (RW, MHRW, S-WRW), under two measurement scenarios:
//
//   - induced subgraph sampling: only the sampled nodes, their categories
//     and the edges among them are observed;
//   - star sampling: the categories of every neighbor of a sampled node are
//     observed as well (the situation when scraping social-network pages).
//
// All estimators are design-based and consistent; non-uniform designs are
// corrected with Hansen–Hurwitz re-weighting using the samplers' reported
// draw weights.
//
// # Quick start
//
//	g, _ := repro.GeneratePaperGraph(repro.NewRand(1), 20, 0.5) // §6.2.1 model
//	s, _ := repro.NewRW(1000).Sample(repro.NewRand(2), g, 10000)
//	o, _ := repro.ObserveStar(g, s)
//	res, _ := repro.Estimate(o, repro.Options{N: float64(g.N())})
//	cg, _ := repro.CategoryGraphFromEstimate(res, g.CategoryNames())
//	cg.WriteTSV(os.Stdout)
//
// # Streaming
//
// Because the estimators are design-based sums, estimation is naturally
// incremental. NewAccumulator and NewStreamObserver expose the streaming
// workflow: ingest nodes as a crawler visits them and snapshot the live
// estimate in O(categories²) at any time (batch and streaming agree on the
// observation itself, node by node, and their estimates agree to within
// float reassociation error). The
// cmd/topoestd daemon serves this over HTTP — multi-tenant: one daemon
// hosts many named jobs (internal/job), each an independent stream with
// its own accumulator, bootstrap configuration and crawl slot, addressed
// as /jobs/{name}/... while the un-prefixed routes keep serving the
// default job. With -checkpoint-dir, every job's complete resumable state
// (ExportFullState: sums, replicates, and the node directory that re-draw
// validation and collision accounting need) is appended periodically as a
// CRC-framed CheckpointFrame and restored on restart, so a daemon resumes
// mid-stream within ≤ 1e-9 of an uninterrupted run.
//
// The sums are also mergeable, which is the paper's own multi-crawl
// workflow (Table 2 pools 28 and 25 independent walks): estimate several
// independent crawls as one pooled sample with MergeObservations (batch)
// or StreamWalks (streaming, one IngestBatch per walk), and scale ingest
// across cores with NewEpochAccumulator: each writer accumulates draws in a
// private LocalAccumulator — no shared state per record — and a periodic
// Flush merges the epoch's sufficient statistics into the published view
// exactly, so concurrent ingest matches the single-lock estimate to
// ≤ 1e-9 (star scenario). Every accumulator takes batches (IngestBatch);
// a per-record writer holds a LocalAccumulator, and only the single-lock
// Accumulator keeps a per-record Ingest of its own.
//
// # Uncertainty
//
// Deployments have no ground truth, so every estimand can carry a
// confidence interval (internal/uncert). The bootstrap pair:
//
//	res, boot, _ := repro.EstimateWithCI(o, repro.Options{N: N},
//	    repro.UncertConfig{B: 200, Seed: 1})
//	iv := boot.SizeCI(3, 0.95)   // 95% percentile CI of |C₃|
//	_ = boot.WeightCI(0, 1, 0.95)
//
// streams too — give any accumulator a Replicates config (B replicate sums
// under deterministic per-(node, replicate) Poisson weights; snapshots then
// carry Boot) or use the one-call form:
//
//	cfg := repro.StreamConfig{K: k, Star: true, N: N,
//	    Replicates: repro.UncertConfig{B: 200, Seed: 1}}
//	snap, _ := repro.StreamWithCI(cfg, so, walks...)
//	_ = snap.Boot.SizeCI(3, 0.95)
//
// For pooled independent crawls, between-walk replication intervals
// (ReplicationCI) capture within-walk correlation the bootstrap cannot
// see, and DeltaSizeCI is the closed-form analytic cross-check. The
// cmd/topoestd daemon serves all of this as GET /estimate?ci=0.95 when
// started with -bootstrap.
//
// # Adaptive crawling
//
// Crawl closes the loop: instead of fixing a draw budget and hoping it
// suffices, the crawl controller (internal/crawl) runs M concurrent
// walkers, streams their observations into one accumulator, and stops
// itself as soon as the CI half-width of every targeted category size (and
// within-category weight) falls below its threshold — or a hard budget
// runs out:
//
//	res, _ := repro.Crawl(g, repro.CrawlConfig{
//	    Walkers: 8, Sampler: "RW", Star: true, N: N,
//	    SizeTarget: 500, SizeCats: []int{0, 1}, // ±500 nodes at 95%
//	    MaxDraws: 200000, CheckEvery: 2000,
//	})
//	// res.Stopped == repro.CrawlStoppedOnTarget, res.Draws = budget used
//
// Stopping can read either CI engine (CrawlEngineBootstrap, or
// CrawlEngineReplication for between-walk intervals from per-walker
// statistics); StartCrawl launches asynchronously with live per-walker
// progress, which cmd/topoestd exposes as POST /crawl + GET /crawl/status.
// For a fixed seed, draws and per-walker counts are exactly reproducible.
//
// # Graph backends
//
// Samplers, observers and the crawl controller consume the Source access
// model rather than a concrete graph: *Graph (in-memory CSR), PackedGraph
// (out-of-core CSR — a .pack file from cmd/graphpack paged through an LRU
// block cache, for graphs larger than RAM) and RateLimitedSource (an
// API-crawl simulation with per-query latency, a global QPS budget and a
// query counter that CrawlResult reports beside the draw count). One seed
// replays the identical walk on every backend; unwalkable graphs surface
// the typed ErrNoEdges sentinel.
//
// The packages under internal/ hold the implementation: internal/core (the
// estimators over shared sufficient statistics), internal/sample (samplers
// and batch + incremental observation models), internal/stream (the online
// accumulator), internal/uncert (bootstrap, replication and delta-method
// variance), internal/crawl (the adaptive crawl controller),
// internal/graph, internal/gen, internal/community, internal/catgraph,
// internal/stats, internal/eval, internal/fbsim and internal/exp (the
// experiment definitions reproducing every table and figure of the paper).
// README.md covers build/run/quickstart; DESIGN.md records design
// decisions; EXPERIMENTS.md explains regenerating the paper's results.
package repro
