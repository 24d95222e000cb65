package repro

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"

	"repro/internal/catgraph"
	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

// Re-exported substrate types. See the internal packages for full method
// documentation.
type (
	// Graph is an immutable undirected graph with an optional category
	// partition (internal/graph).
	Graph = graph.Graph
	// Source is the access model of the walk layer: what a sampler or
	// crawler may ask of a graph backend. *Graph implements it, as do
	// PackedGraph (out-of-core CSR) and RateLimitedSource (API-crawl
	// simulation) — every sampler and the crawl controller run over any
	// of them.
	Source = graph.Source
	// PackedGraph is the out-of-core CSR backend: a .pack file read
	// through an LRU block cache, serving graphs far larger than RAM.
	PackedGraph = graph.Packed
	// PackOptions tunes the paging of an opened pack (block size, cache
	// capacity).
	PackOptions = graph.PackOptions
	// RateLimit parameterizes the remote-API crawl simulation (per-query
	// latency, global QPS budget, local result cache).
	RateLimit = graph.RateLimit
	// RateLimitedSource wraps any Source into a metered, rate-limited
	// remote-API simulation; the crawl controller reports its queries
	// spent alongside draws.
	RateLimitedSource = graph.RateLimited
	// CacheStats summarizes a backend-local cache (the pack block cache,
	// or the rate-limited source's fetched-node cache): cumulative hits,
	// misses, evictions and bytes read.
	CacheStats = graph.CacheStats
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// Sample is an ordered probability sample of nodes with draw weights.
	Sample = sample.Sample
	// Sampler draws probability samples from a graph (UIS, WIS, RW, MHRW,
	// WRW, S-WRW).
	Sampler = sample.Sampler
	// Observation is what a measurement scenario reveals about a sample;
	// it is the sole input of the estimators.
	Observation = sample.Observation
	// Options configures Estimate.
	Options = core.Options
	// Result is a complete category-graph estimate.
	Result = core.Result
	// PairWeights holds category-pair edge weights.
	PairWeights = core.PairWeights
	// CategoryGraph is an exportable, mergeable weighted category graph.
	CategoryGraph = catgraph.Graph
	// SWRWConfig parameterizes the stratified weighted random walk.
	SWRWConfig = sample.SWRWConfig
	// NodeObservation is the unit of the incremental observation API:
	// what one draw of one node reveals under a measurement scenario.
	NodeObservation = sample.NodeObservation
	// StreamObserver replays a crawl as a stream of NodeObservations.
	StreamObserver = sample.StreamObserver
	// StreamConfig parameterizes a streaming Accumulator.
	StreamConfig = stream.Config
	// Accumulator ingests node observations and serves live estimates.
	Accumulator = stream.Accumulator
	// EpochAccumulator is the multi-core accumulator: each writer ingests
	// into a private LocalAccumulator and publishes whole epochs of
	// records through a short exact merge — no shared state on the
	// per-record path (star scenario only).
	EpochAccumulator = stream.EpochAccumulator
	// LocalAccumulator is one writer's private epoch over an
	// EpochAccumulator: Ingest touches only writer-owned memory, Flush
	// publishes the epoch.
	LocalAccumulator = stream.Local
	// StreamIngester is the surface shared by Accumulator and
	// EpochAccumulator.
	StreamIngester = stream.Ingester
	// StreamSnapshot is a self-contained point-in-time estimate with
	// convergence deltas.
	StreamSnapshot = stream.Snapshot
	// AccumulatorState is an exported snapshot of an ingester's sufficient
	// statistics (sums plus optional bootstrap replicates) — the unit the
	// distributed tier ships between processes.
	AccumulatorState = stream.State
	// StatePool is the read-only merge coordinator ingester: Rebuild it from
	// worker AccumulatorStates and it serves pooled estimates exactly as if
	// one process had ingested everything (node-disjoint workers).
	StatePool = stream.Pool
	// UncertConfig parameterizes the bootstrap engines of internal/uncert:
	// B replicates under deterministic hash-seeded Poisson weights.
	UncertConfig = uncert.Config
	// Interval is a two-sided confidence interval.
	Interval = uncert.Interval
	// BootstrapSnapshot holds per-replicate estimates of every estimand and
	// serves percentile CIs at any level (SizeCI, WeightCI, WithinCI, PopCI).
	BootstrapSnapshot = uncert.BootSnapshot
	// ReplicationSummary is the between-walk variance summary of a pooled
	// multi-walk estimate (t intervals around the merged-sums center).
	ReplicationSummary = uncert.Replication
	// DeltaSizes is the delta-method variance of the category-size ratio
	// estimators — the cheap analytic cross-check of the bootstrap.
	DeltaSizes = uncert.DeltaSizes
	// CrawlConfig parameterizes an adaptive crawl: concurrent walkers,
	// sampler kernel, CI-width stopping targets and draw budget.
	CrawlConfig = crawl.Config
	// CrawlResult summarizes a finished crawl: stop reason, draws, the
	// final pooled snapshot and the final CI half-widths.
	CrawlResult = crawl.Result
	// CrawlStatus is a live view of a running crawl (per-walker progress
	// and the most recent stopping-rule checkpoint).
	CrawlStatus = crawl.Status
	// CrawlJob is a running adaptive crawl: Status() for live progress,
	// Wait() for the result.
	CrawlJob = crawl.Crawl
	// CrawlEngine selects the stopping-rule CI engine.
	CrawlEngine = crawl.Engine
)

// NoCategory marks nodes that belong to no category.
const NoCategory = graph.None

// ErrNoEdges is the typed sentinel for unwalkable graphs (empty, edgeless,
// or an isolated explicit start): match with errors.Is to distinguish a bad
// graph from a bad configuration.
var ErrNoEdges = sample.ErrNoEdges

// SizeMethod selects the category-size estimator plugged into Estimate,
// StreamConfig and the uncertainty engines.
type SizeMethod = core.SizeMethod

// The category-size estimator choices of Options.Size / StreamConfig.Size.
const (
	SizeMethodAuto       = core.SizeMethodAuto
	SizeMethodInduced    = core.SizeMethodInduced
	SizeMethodStar       = core.SizeMethodStar
	SizeMethodStarPooled = core.SizeMethodStarPooled
)

// NewRand returns a deterministic PCG generator for the given seed.
func NewRand(seed uint64) *rand.Rand { return randx.New(seed) }

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// GeneratePaperGraph builds the synthetic model of the paper's §6.2.1 at
// full scale: N = 88,850 nodes in ten categories (sizes 50…50,000), each a
// k-regular random graph internally, plus N·k/10 random inter-category
// edges; a fraction alpha of the category labels is then shuffled.
func GeneratePaperGraph(r *rand.Rand, k int, alpha float64) (*Graph, error) {
	return gen.Paper(r, gen.PaperConfig{K: k, Alpha: alpha, Connect: true})
}

// NewUIS returns the uniform independence sampler.
func NewUIS() Sampler { return sample.UIS{} }

// NewDegreeWIS returns the degree-proportional weighted independence
// sampler for src (the design RW converges to).
func NewDegreeWIS(src Source) (Sampler, error) { return sample.NewDegreeWIS(src) }

// NewRW returns a simple random walk with the given burn-in.
func NewRW(burnIn int) Sampler { return sample.NewRW(burnIn) }

// NewMHRW returns a Metropolis–Hastings random walk targeting the uniform
// distribution.
func NewMHRW(burnIn int) Sampler { return sample.NewMHRW(burnIn) }

// NewSWRW returns the stratified weighted random walk of [35] for src (any
// backend whose category volumes are available — *Graph and PackedGraph
// both qualify).
func NewSWRW(src Source, cfg SWRWConfig) (Sampler, error) { return sample.NewSWRW(src, cfg) }

// NewFrontier returns the multiple-dependent-walk frontier sampler of [52]:
// m degree-weighted walkers whose union converges to the same
// degree-proportional design as RW while decorrelating consecutive draws.
func NewFrontier(m, burnIn int) Sampler { return sample.NewFrontier(m, burnIn) }

// NewBFS returns breadth-first (snowball) sampling — NOT a probability
// sample; provided as the §8 cautionary baseline whose degree bias the
// design-based estimators cannot correct.
func NewBFS() Sampler { return sample.NewBFS() }

// ObserveInduced performs induced subgraph sampling (§3.2.1): only the
// sampled nodes, their categories, and the edges among them are revealed.
func ObserveInduced(src Source, s *Sample) (*Observation, error) {
	return sample.ObserveInduced(src, s)
}

// ObserveStar performs labeled star sampling (§3.2.2): the categories of
// all neighbors of each sampled node are revealed as well.
func ObserveStar(src Source, s *Sample) (*Observation, error) {
	return sample.ObserveStar(src, s)
}

// Estimate produces the full category-graph estimate (sizes + weights) from
// one observation.
func Estimate(o *Observation, opts Options) (*Result, error) { return core.Estimate(o, opts) }

// SizeInduced estimates all category sizes with Eq. (4)/(11).
func SizeInduced(o *Observation, n float64) []float64 { return core.SizeInduced(o, n) }

// SizeStar estimates all category sizes with Eq. (5)/(12).
func SizeStar(o *Observation, n float64) ([]float64, error) { return core.SizeStar(o, n) }

// WeightsInduced estimates all category edge weights with Eq. (8)/(15).
func WeightsInduced(o *Observation) (*PairWeights, error) { return core.WeightsInduced(o) }

// WeightsStar estimates all category edge weights with Eq. (9)/(16),
// plugging in the provided size estimates.
func WeightsStar(o *Observation, sizes []float64) (*PairWeights, error) {
	return core.WeightsStar(o, sizes)
}

// PopulationSize estimates N = |V| from sample collisions (§4.3, after
// Katzir et al.). Thin walk samples first.
func PopulationSize(s *Sample) float64 { return core.PopulationSize(s) }

// DegreeDistribution estimates P(deg = d) from a star observation with
// Hansen–Hurwitz correction (a §1 "local property" estimator).
func DegreeDistribution(o *Observation) ([]float64, error) { return core.DegreeDistribution(o) }

// WithinWeightsInduced estimates the internal density w(A,A) of every
// category from an induced observation (blockmodel "block density"; an
// extension beyond the paper's self-loop-free GC).
func WithinWeightsInduced(o *Observation) ([]float64, error) { return core.WithinWeightsInduced(o) }

// WithinWeightsStar is the star-scenario counterpart of
// WithinWeightsInduced, with plugged-in size estimates.
func WithinWeightsStar(o *Observation, sizes []float64) ([]float64, error) {
	return core.WithinWeightsStar(o, sizes)
}

// NewAccumulator returns an empty streaming accumulator: ingest
// NodeObservations as they are crawled and call Snapshot for the live
// category-graph estimate in O(categories²), without rescanning history.
// Batch and streaming estimation share one code path and agree to within
// floating-point reassociation error.
func NewAccumulator(cfg StreamConfig) (*Accumulator, error) { return stream.NewAccumulator(cfg) }

// NewEpochAccumulator returns an empty epoch-merged accumulator: the
// multi-core counterpart of NewAccumulator. Each writer obtains a private
// LocalAccumulator (NewLocal) whose per-record path touches no shared
// state; a Flush — every flushEvery records (0 means 1024), or explicit —
// folds the epoch's Hansen–Hurwitz sums and bootstrap replicates into the
// published view exactly. Star scenario only (induced edge masses couple
// nodes across epochs).
func NewEpochAccumulator(cfg StreamConfig, flushEvery int) (*EpochAccumulator, error) {
	return stream.NewEpochAccumulator(cfg, flushEvery)
}

// NewStatePool returns an empty merge-coordinator pool for the given
// partition and scenario (cfg.Replicates is ignored: a pool adopts the
// workers' bootstrap configuration when their exports agree on one). Feed it
// with Rebuild(states) — typically AccumulatorStates decoded from worker
// /sums payloads — and read it through the same Snapshot/estimate surface
// as any other ingester. Merging is exact when workers observe
// node-disjoint partitions of the population.
func NewStatePool(cfg StreamConfig) (*StatePool, error) { return stream.NewPool(cfg) }

// EncodeState serializes an exported accumulator state into the compact
// versioned wire format served on /sums and consumed by a merge
// coordinator. EncodeState and DecodeState are exact inverses: every
// accepted payload re-encodes byte-identically.
func EncodeState(st *AccumulatorState) ([]byte, error) { return wire.Encode(st) }

// DecodeState parses a wire payload produced by EncodeState (any codec
// version up to the current one), validating structure and canonical layout
// so corrupted or truncated payloads are rejected rather than merged.
func DecodeState(data []byte) (*AccumulatorState, error) { return wire.Decode(data) }

// AccumulatorFullState is the complete resumable state of an accumulator:
// the mergeable statistics of AccumulatorState plus the node directory at
// the same cut. It is what durable checkpointing persists — a restore from
// it continues the stream exactly (identical estimates, re-draw validation
// and collision accounting), not merely an estimate of it.
type AccumulatorFullState = stream.FullState

// CheckpointFrame is one durable checkpoint: a named job's spec payload,
// its monotone ingest generation, and the full resumable state, framed in
// the CRC-protected append-only format of internal/wire. cmd/topoestd
// appends one per job per checkpoint interval under -checkpoint-dir.
type CheckpointFrame = wire.Checkpoint

// ExportFullState returns acc's complete resumable state in one critical
// section. It errors when the ingester has nothing durable of its own (the
// read-only StatePool is rebuilt from worker exports each round).
func ExportFullState(acc StreamIngester) (*AccumulatorFullState, error) {
	fe, ok := acc.(stream.FullExporter)
	if !ok {
		return nil, fmt.Errorf("repro: %T does not export resumable state", acc)
	}
	return fe.ExportFull()
}

// RestoreAccumulator rebuilds a single-lock accumulator from a full state
// export, resuming the stream exactly where the export stood.
func RestoreAccumulator(cfg StreamConfig, fs *AccumulatorFullState) (*Accumulator, error) {
	return stream.RestoreAccumulator(cfg, fs)
}

// RestoreEpochAccumulator rebuilds a multi-core epoch-merged accumulator
// from a full state export — the export may come from either accumulator
// design, so a stream persisted under one concurrency mode can resume
// under the other (estimates agree to ≤ 1e-9).
func RestoreEpochAccumulator(cfg StreamConfig, flushEvery int, fs *AccumulatorFullState) (*EpochAccumulator, error) {
	return stream.RestoreEpochAccumulator(cfg, flushEvery, fs)
}

// AppendCheckpoint appends one framed checkpoint to w (an append-only
// file), returning the frame's size in bytes. Frames are self-delimiting
// and CRC-protected; a torn final append is detected and skipped on read.
func AppendCheckpoint(w io.Writer, cp *CheckpointFrame) (int, error) {
	return wire.AppendCheckpoint(w, cp)
}

// LastCheckpoint scans an append-only checkpoint file and returns its last
// intact frame plus the number of damaged trailing bytes after it (0 when
// the file ends cleanly; frame == nil when no frame verifies). It never
// fails: recovery truncates the tail and resumes from the last good frame.
func LastCheckpoint(data []byte) (frame *CheckpointFrame, tornTail int) {
	return wire.LastCheckpoint(data)
}

// NewStreamObserver returns the streaming counterpart of ObserveInduced /
// ObserveStar: it reveals each drawn node's observation record one draw at
// a time, exactly as a live crawler would see it — over any Source, so the
// observation layer pays the same per-query costs a real crawler would.
func NewStreamObserver(src Source, star bool) (*StreamObserver, error) {
	return sample.NewStreamObserver(src, star)
}

// StreamSample replays a batch sample through an observer into any
// StreamIngester — convenience for turning any Sampler output into a
// stream. The observer and accumulator must agree on the measurement
// scenario, and the sample must pass the observer's CheckSample.
func StreamSample(acc StreamIngester, so *StreamObserver, s *Sample) error {
	if so.Star() != acc.Config().Star {
		return fmt.Errorf("repro: observer scenario (star=%v) does not match accumulator (star=%v)",
			so.Star(), acc.Config().Star)
	}
	if err := so.CheckSample(s); err != nil {
		return err
	}
	for i, v := range s.Nodes {
		if err := acc.Ingest(so.Observe(v, s.Weight(i))); err != nil {
			return err
		}
	}
	return nil
}

// StreamWalks replays several independent walks through one observer into
// one accumulator, pooling them into a single estimate — the streaming side
// of the paper's Table 2 workflow (28 and 25 independent walks per
// estimate). The batch-side counterpart is MergeObservations.
func StreamWalks(acc StreamIngester, so *StreamObserver, walks ...*Sample) error {
	for i, s := range walks {
		if err := StreamSample(acc, so, s); err != nil {
			return fmt.Errorf("repro: walk %d: %w", i, err)
		}
	}
	return nil
}

// MergeObservations pools the star observations of independent crawls into
// one observation equivalent to observing the concatenated sample, so
// sample.Walks output can be estimated as one pooled sample. Induced
// observations are rejected — pool the samples and re-observe instead (see
// internal/sample.MergeObservations).
func MergeObservations(obs ...*Observation) (*Observation, error) {
	return sample.MergeObservations(obs...)
}

// Walks draws independent samples with the given sampler — the multi-crawl
// design of the paper's Facebook datasets. Estimate them as one pooled
// sample via MergeObservations (batch) or StreamWalks (streaming).
func Walks(r *rand.Rand, src Source, s Sampler, walks, perWalk int) ([]*Sample, error) {
	return sample.Walks(r, src, s, walks, perWalk)
}

// Merge concatenates several samples (e.g. independent walks) into one; if
// any input carries weights, the output does too.
func Merge(samples ...*Sample) *Sample { return sample.Merge(samples...) }

// EstimateWithCI produces the full category-graph estimate together with a
// bootstrap snapshot carrying percentile confidence intervals for every
// estimand — the (estimate, CI) pair that makes a ground-truth-free
// deployment consumable. The snapshot is built by resampling the
// observation's distinct nodes B times under deterministic Poisson(1)
// weights (internal/uncert); query it at any level, e.g.
// boot.SizeCI(c, 0.95). Matches the streaming path: an Accumulator with the
// same UncertConfig produces the same replicate estimates for the same
// stream.
func EstimateWithCI(o *Observation, opts Options, bc UncertConfig) (*Result, *BootstrapSnapshot, error) {
	res, err := core.Estimate(o, opts)
	if err != nil {
		return nil, nil, err
	}
	reps, err := uncert.ReplicatesFromObservation(o, bc)
	if err != nil {
		return nil, nil, err
	}
	return res, reps.Snapshot(opts), nil
}

// StreamWithCI replays one or more walks through an observer into a fresh
// accumulator with the streaming bootstrap enabled and returns the final
// snapshot, whose Boot field serves percentile CIs for every estimand — the
// one-call streaming counterpart of EstimateWithCI. A zero cfg.Replicates.B
// defaults to 200 replicates. The observer and configuration must agree on
// the measurement scenario.
func StreamWithCI(cfg StreamConfig, so *StreamObserver, walks ...*Sample) (*StreamSnapshot, error) {
	if cfg.Replicates.B == 0 {
		cfg.Replicates.B = 200
	}
	acc, err := stream.NewAccumulator(cfg)
	if err != nil {
		return nil, err
	}
	if err := StreamWalks(acc, so, walks...); err != nil {
		return nil, err
	}
	return acc.Snapshot()
}

// ReplicationCI computes between-walk variance intervals for the pooled
// estimate of m ≥ 2 independent crawls (the paper's Table 2 workflow): the
// pooled center comes from the merged sufficient statistics, the spread of
// the per-walk estimates gives t-distribution intervals. This is the only
// engine that captures within-walk correlation, so prefer it whenever
// independent walks exist.
func ReplicationCI(opts Options, level float64, obs ...*Observation) (*ReplicationSummary, error) {
	sums := make([]*core.Sums, len(obs))
	for i, o := range obs {
		sums[i] = core.SumsFromObservation(o)
	}
	return uncert.ReplicationCI(sums, opts, level)
}

// DeltaSizeCI computes the closed-form delta-method variance of the
// category-size ratio estimators |Â| = N·w⁻¹(S_A)/w⁻¹(S) from one
// observation — exact for independence designs (UIS/WIS), indicative for
// walks. Use it as a cheap cross-check of the bootstrap.
func DeltaSizeCI(o *Observation, n float64, level float64) (*DeltaSizes, error) {
	return uncert.DeltaSizeCI(core.SumsFromObservation(o), n, level)
}

// The stopping-rule engines of CrawlConfig.Engine and the stop reasons of
// CrawlResult.Stopped.
const (
	CrawlEngineBootstrap   = crawl.EngineBootstrap
	CrawlEngineReplication = crawl.EngineReplication
	CrawlStoppedOnTarget   = crawl.ReasonTarget
	CrawlStoppedOnBudget   = crawl.ReasonBudget
)

// Crawl runs an adaptive crawl of g to completion: CrawlConfig.Walkers
// concurrent walkers (RW/MHRW/WRW/S-WRW, deterministic per-walker seeds)
// stream observations into a shared accumulator, and the crawl stops
// itself as soon as every targeted confidence-interval half-width falls
// below its threshold — or the MaxDraws budget runs out. This is the
// paper's "how much crawling is enough" question answered in-process: the
// uncertainty machinery that PR'd every estimand into an (estimate, CI)
// pair here drives the sampling effort instead of merely reporting.
func Crawl(src Source, cfg CrawlConfig) (*CrawlResult, error) {
	c, err := crawl.Start(src, nil, cfg)
	if err != nil {
		return nil, err
	}
	return c.Wait()
}

// StartCrawl launches an adaptive crawl asynchronously and returns the
// running job (Status for live per-walker progress and CI widths, Wait for
// the result). A non-nil acc streams into a caller-owned accumulator — the
// topoestd wiring, where the daemon keeps serving /estimate from the same
// statistics the crawl feeds; its scenario and category count must match
// the configuration, and a star crawl needs an EpochAccumulator.
func StartCrawl(src Source, acc StreamIngester, cfg CrawlConfig) (*CrawlJob, error) {
	return crawl.Start(src, acc, cfg)
}

// WritePack serializes g into the .pack out-of-core CSR format (see
// cmd/graphpack for the command-line packer).
func WritePack(w io.Writer, g *Graph) error { return graph.WritePack(w, g) }

// OpenPackFile opens a .pack file as a PackedGraph Source; Close releases
// it. The zero PackOptions give a 64 KiB block size and a 16 MiB LRU cache.
func OpenPackFile(path string, opt PackOptions) (*PackedGraph, error) {
	return graph.OpenPackFile(path, opt)
}

// NewRateLimited wraps any Source into a rate-limited remote-API simulation
// counting (and pacing) neighbor queries — the paper's real deployment
// scenario, where API calls, not CPU, bound the crawl.
func NewRateLimited(src Source, cfg RateLimit) *RateLimitedSource {
	return graph.NewRateLimited(src, cfg)
}

// MetricsHandler returns an http.Handler serving the process-wide metric
// registry in Prometheus text format — everything the instrumented layers
// (stream ingest, crawl controller, graph backends) record, ready to mount
// on any mux. The topoestd daemon serves it at GET /metrics.
func MetricsHandler() http.Handler { return obs.Handler(obs.Default) }

// TrueCategoryGraph computes the exact category graph of a fully known
// categorized graph (the ground truth of the simulations).
func TrueCategoryGraph(g *Graph) (*CategoryGraph, error) { return catgraph.FromGraph(g) }

// CategoryGraphFromEstimate assembles an exportable category graph from
// estimator output.
func CategoryGraphFromEstimate(res *Result, names []string) (*CategoryGraph, error) {
	return catgraph.FromEstimate(res, names)
}
