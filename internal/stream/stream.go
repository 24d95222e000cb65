// Package stream provides online estimation of the category graph: an
// Accumulator ingests observed nodes one at a time (or in batches) and
// maintains the running Hansen–Hurwitz sums of internal/core so that
// Snapshot produces category sizes, pair weights, within-category densities
// and a population-size estimate in O(K² + pairs) — without ever rescanning
// the ingestion history.
//
// This is the serving-side counterpart of the batch pipeline: the paper's
// estimators are design-based sums over sampled nodes (§4–§5), which makes
// them naturally incremental; a crawler of a live OSN produces exactly the
// stream of sample.NodeObservation records the Accumulator consumes. Batch
// and streaming estimation share one code path (core.Sums), so for identical
// observations Accumulator.Snapshot and core.Estimate agree to within
// floating-point reassociation error (≪ 1e-9 relative; see the package
// tests).
//
// The Accumulator is safe for concurrent use: ingestion and snapshotting
// may race freely across goroutines, and each Snapshot is an immutable
// value once returned. Its throughput, however, is bounded by one mutex;
// for multi-core ingest the EpochAccumulator gives each writer a private
// Local that touches no shared state per record and publishes whole epochs
// of records through a short two-phase merge (core.Sums.Merge /
// uncert.Replicates.Merge) — no locks on the hot path at all, amortized
// O(1) shared work per record, and snapshots identical to the single-lock
// path to ≤ 1e-9. The epoch design is exact for the star scenario, where
// records are per-node self-contained; see NewEpochAccumulator for why
// induced streams stay on the single-lock Accumulator. The architecture
// comment in epoch.go derives the merge's exactness and the
// flush-visibility contract.
package stream

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// Config parameterizes an Accumulator.
type Config struct {
	// K is the number of categories in the partition (required, ≥ 1).
	K int
	// Star selects the measurement scenario: star sampling when true,
	// induced subgraph sampling when false.
	Star bool
	// N is the population size |V|; 0 means unknown, producing relative
	// sizes with N := 1 (§4.3). Snapshots always carry the collision-based
	// N̂ as well, so a long-running service can run with N = 0 and report
	// absolute scale once the stream has accumulated collisions.
	N float64
	// Size selects the category-size estimator plugged into the weights.
	Size core.SizeMethod
	// Replicates turns on the streaming bootstrap (internal/uncert): with
	// B > 0 replicates, every ingest also advances B replicate copies of
	// the sufficient statistics under deterministic per-(node, replicate)
	// Poisson(1) weights, and snapshots carry percentile confidence
	// intervals for every estimand (Snapshot.Boot). Ingest cost grows by
	// O(B · record size); snapshots by O(B·K² + B·pairs). The replicate
	// weights depend only on (Seed, node, replicate), so the epoch-merged
	// accumulator and Pool merges of workers with the same configuration
	// produce the same replicate snapshots as the single-lock accumulator.
	Replicates uncert.Config
}

// nodeState is what the accumulator remembers about one distinct node: the
// per-node constants the estimators re-weight on every draw, plus — per
// scenario — the node's star record or its incident observed edges.
type nodeState struct {
	mult   float64
	weight float64
	cat    int32

	// Star scenario: the node's degree and neighbor-category counts,
	// recorded at first observation (as in the batch Observation).
	// starSeen marks that a star-carrying record was recorded — nbrCat
	// alone cannot (a node whose neighbors are all uncategorized records
	// a positive degree with an empty count list).
	starSeen bool
	deg      float64
	nbrCat   []int32
	nbrCnt   []float64

	// Induced scenario: distinct observed peers, so a re-draw can replay
	// its marginal mass over every incident edge of G[S].
	peers []int32
}

// Ingester is the surface shared by the single-lock Accumulator and the
// EpochAccumulator: everything a crawler (or the topoestd daemon) needs to
// feed observations in and read live estimates out. Both implementations are
// safe for concurrent use.
type Ingester interface {
	// Config returns the accumulator's configuration.
	Config() Config
	// Draws returns the number of draws ingested so far.
	Draws() int
	// Distinct returns the number of distinct nodes observed so far.
	Distinct() int
	// Gen returns the monotone ingest generation: a single atomic counter
	// that advances once per successfully applied record (at record apply
	// for the Accumulator, at epoch flush for the EpochAccumulator, whose
	// own Ingest/IngestBatch flush before returning) and can never tear.
	// It is the cache key of choice for snapshot consumers: if a record's
	// Ingest call returned before Gen was read, and a later Gen read
	// returns the same value, then a Snapshot taken between the two reads
	// includes that record.
	Gen() uint64
	// Ingest folds one node observation into the running sums.
	Ingest(rec sample.NodeObservation) error
	// IngestBatch folds a batch in order, stopping at the first invalid
	// record; it returns how many leading records were applied — the retry
	// index for the caller. Only the single-lock Accumulator applies a
	// batch as one isolated critical section; see
	// EpochAccumulator.IngestBatch for what concurrent interleaving does
	// (and does not) change.
	IngestBatch(recs []sample.NodeObservation) (int, error)
	// Snapshot computes the current estimate in O(K² + pairs).
	Snapshot() (*Snapshot, error)
	// Export returns a consistent cut of the accumulator's sufficient
	// statistics — primary sums, collision scalars, bootstrap replicates
	// and the generation identifying the cut — sharing no mutable memory
	// with the accumulator. It is the worker half of the distributed
	// estimation tier: internal/wire serializes a State and a coordinator
	// Pool re-merges states from many processes.
	Export() (*State, error)
}

// Accumulator ingests a stream of node observations and serves estimates.
type Accumulator struct {
	// view is the published state; its mutex also guards nodes, so a
	// record is applied in one critical section.
	view
	cfg   Config
	nodes map[int32]*nodeState

	// gen advances once per successfully applied record, inside the
	// critical section, so an Ingest call that returned has published its
	// increment (see Ingester.Gen).
	gen atomic.Uint64
}

// NewAccumulator returns an empty accumulator for the given configuration.
func NewAccumulator(cfg Config) (*Accumulator, error) {
	a := &Accumulator{cfg: cfg, nodes: make(map[int32]*nodeState)}
	if err := a.init(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// Config returns the accumulator's configuration.
func (a *Accumulator) Config() Config { return a.cfg }

// Draws returns the number of draws ingested so far.
func (a *Accumulator) Draws() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.sums.Draws)
}

// Distinct returns the number of distinct nodes observed so far.
func (a *Accumulator) Distinct() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.nodes)
}

// Gen implements Ingester: the monotone ingest generation, readable without
// the accumulator lock.
func (a *Accumulator) Gen() uint64 { return a.gen.Load() }

// SumsClone returns a deep copy of the primary sufficient statistics at a
// consistent cut — the raw material of cross-accumulator engines such as
// the between-walk replication variance of internal/uncert, which pools
// one accumulator per walk.
func (a *Accumulator) SumsClone() *core.Sums {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := core.NewSums(a.cfg.K, a.cfg.Star)
	// Merging into a fresh sums of the same K and scenario cannot fail.
	if err := s.Merge(a.sums); err != nil {
		panic(err)
	}
	return s
}

// Ingest folds one node observation into the running sums in O(1 +
// |record|) — where |record| is the number of neighbor categories (star) or
// incident observed edges (induced re-draw). The record conventions are
// those of sample.NodeObservation: weight 0 means 1, star neighbor data
// rides on the first observation of a node, induced peers list each edge of
// G[S] exactly once. Records that fail validation are rejected without
// changing any state.
func (a *Accumulator) Ingest(rec sample.NodeObservation) error {
	// Instrumentation cost on the hot path: one striped atomic add for an
	// applied record. The latency histogram is only taken when bootstrap
	// replicates are enabled, where the O(B) replicate update already puts
	// the record in microsecond territory and two clock reads are noise.
	var t0 time.Time
	if a.reps != nil {
		t0 = time.Now()
	}
	a.mu.Lock()
	err := a.ingestLocked(rec)
	a.mu.Unlock()
	if err != nil {
		return err
	}
	mIngested.Inc()
	if a.reps != nil {
		mBootIngestSec.ObserveSince(t0)
	}
	return nil
}

// IngestBatch folds a batch of observations in one critical section,
// stopping at the first invalid record (previous records stay applied). It
// returns the number of records applied. The count is the retry contract:
// on error exactly the first n records are durable, so a retrying client
// must resend recs[n:] after fixing the offending record recs[n] (or
// recs[n+1:] after discarding it) — resending the whole batch
// double-ingests the prefix.
func (a *Accumulator) IngestBatch(recs []sample.NodeObservation) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// With replicates on, each applied record's latency is observed as in
	// Ingest; one clock read per record chains the records' intervals.
	var t0 time.Time
	if a.reps != nil {
		t0 = time.Now()
	}
	for i, rec := range recs {
		if err := a.ingestLocked(rec); err != nil {
			mIngested.Add(int64(i))
			return i, err
		}
		if a.reps != nil {
			t1 := time.Now()
			mBootIngestSec.Observe(t1.Sub(t0).Seconds())
			t0 = t1
		}
	}
	mIngested.Add(int64(len(recs)))
	return len(recs), nil
}

func (a *Accumulator) ingestLocked(rec sample.NodeObservation) error {
	if rec.Cat != graph.None && (rec.Cat < 0 || int(rec.Cat) >= a.cfg.K) {
		return reject("bad_category", "stream: node %d has category %d outside [0,%d)", rec.Node, rec.Cat, a.cfg.K)
	}
	// Only weight 0 means "unspecified, i.e. 1"; a negative, NaN, or
	// infinite weight is a broken crawler, and silently folding it in would
	// corrupt every Hansen–Hurwitz sum the node touches.
	if math.IsNaN(rec.Weight) || math.IsInf(rec.Weight, 0) || rec.Weight < 0 {
		return reject("bad_weight", "stream: node %d has invalid sampling weight %g (0 means 1; negative, NaN and infinite are rejected)", rec.Node, rec.Weight)
	}
	// Records carrying fields of the other scenario signal a mismatched
	// stream — reject loudly rather than silently ignore the data and
	// serve garbage estimates.
	if !a.cfg.Star && (len(rec.NbrCat) > 0 || len(rec.NbrCnt) > 0 || rec.Deg != 0) {
		return reject("scenario_mismatch", "stream: node %d carries star fields (deg/nbr_cat) but the accumulator runs the induced scenario", rec.Node)
	}
	if a.cfg.Star && len(rec.Peers) > 0 {
		return reject("scenario_mismatch", "stream: node %d carries induced peers but the accumulator runs the star scenario", rec.Node)
	}
	w := rec.Weight
	if w == 0 {
		w = 1
	}
	ns, known := a.nodes[rec.Node]
	if !known {
		ns = &nodeState{weight: w, cat: rec.Cat}
	} else {
		// A node's category and sampling weight are per-node constants of
		// the design; a re-draw that contradicts the first observation is a
		// buggy or misrouted crawler and would silently skew every estimate
		// if we kept folding it in under the old metadata. An omitted weight
		// (0) on a re-draw inherits the recorded one — crawlers may send the
		// weight only on a node's first record.
		if rec.Cat != ns.cat {
			return reject("redraw_conflict", "stream: node %d re-drawn with category %d, conflicting with its first observation (category %d)", rec.Node, rec.Cat, ns.cat)
		}
		if rec.Weight != 0 && w != ns.weight {
			return reject("redraw_conflict", "stream: node %d re-drawn with sampling weight %g, conflicting with its first observation (weight %g)", rec.Node, w, ns.weight)
		}
	}
	// Star info is recorded once per distinct node, from the first record
	// that carries it. Well-formed streams send it with the node's first
	// observation (StreamObserver does); when several crawlers feed one
	// accumulator concurrently, sending it on every record is equally
	// correct — whichever arrives first is kept, matching the batch
	// Observation's once-per-node semantics on a static graph. Should the
	// info only arrive on a later draw, the node's earlier draws — which
	// contributed exactly zero star mass (deg 0, no neighbors) — are
	// backfilled below, so the estimate matches the batch path regardless
	// of delivery order.
	if a.cfg.Star && (len(rec.NbrCat) > 0 || len(rec.NbrCnt) > 0 || rec.Deg != 0) {
		if err := sample.ValidateStarFields(a.cfg.K, rec); err != nil {
			return reject("bad_star", "stream: %w", err)
		}
		if ns.starSeen {
			// Star info arriving again for a node whose star data is
			// already recorded must reconcile with it: consistent
			// re-deliveries pass (concurrent crawlers, in whatever category
			// order and degree convention each one emits), partial ones
			// upgrade the record, and a contradiction is a buggy crawler
			// whose data must not be dropped silently.
			cat, cnt := sample.CanonicalStarCounts(rec.NbrCat, rec.NbrCnt)
			newDeg, newCat, newCnt, err := sample.ReconcileStarData(rec.Node, rec.Deg, cat, cnt, ns.deg, ns.nbrCat, ns.nbrCnt)
			if err != nil {
				return reject("star_conflict", "stream: %w", err)
			}
			if newDeg != ns.deg || len(newCat) != len(ns.nbrCat) {
				// Retrofit the node's earlier draws with the upgraded
				// information: the degree delta, plus the adopted counts
				// when the stored list was empty.
				var addCat []int32
				var addCnt []float64
				if len(newCat) != len(ns.nbrCat) {
					addCat, addCnt = newCat, newCnt
				}
				a.sums.AddStar(ns.cat, ns.weight, ns.mult, newDeg-ns.deg, addCat, addCnt)
				if a.reps != nil {
					a.reps.AddStar(rec.Node, ns.cat, ns.weight, ns.mult, newDeg-ns.deg, addCat, addCnt)
				}
				ns.deg = newDeg
				ns.nbrCat = append([]int32(nil), newCat...)
				ns.nbrCnt = append([]float64(nil), newCnt...)
			}
		} else {
			a.recordStarLocked(rec, ns)
		}
	}
	// Validate induced peers before mutating anything.
	var newPeers []int32
	if !a.cfg.Star && len(rec.Peers) > 0 {
		for _, p := range rec.Peers {
			if _, ok := a.nodes[p]; !ok && p != rec.Node {
				return reject("unknown_peer", "stream: peer %d of node %d not yet observed", p, rec.Node)
			}
			// Skip self-loops, already-known edges, and duplicates within
			// this record's own peer list.
			if p == rec.Node || a.hasEdge(ns, p) || contains(newPeers, p) {
				continue
			}
			newPeers = append(newPeers, p)
		}
	}

	if !known {
		a.nodes[rec.Node] = ns
	}
	prev := ns.mult
	ns.mult++
	a.sums.AddNode(ns.cat, ns.weight, 1, prev)
	a.psi1 += ns.weight
	a.psiInv += 1 / ns.weight
	a.collisions += prev // the new draw collides with every earlier draw of this node
	if a.reps != nil {
		a.reps.AddDraw(rec.Node, ns.cat, ns.weight, prev)
	}

	if a.cfg.Star {
		a.sums.AddStar(ns.cat, ns.weight, 1, ns.deg, ns.nbrCat, ns.nbrCnt)
		if a.reps != nil {
			a.reps.AddStar(rec.Node, ns.cat, ns.weight, 1, ns.deg, ns.nbrCat, ns.nbrCnt)
		}
		a.gen.Add(1)
		return nil
	}
	// Induced: a re-draw raises this node's multiplicity, which raises the
	// mass of every incident observed edge by m_peer/(w·w_peer)…
	if prev > 0 {
		for _, p := range ns.peers {
			ps := a.nodes[p]
			mass := ps.mult / (ns.weight * ps.weight)
			a.sums.AddEdgeMass(ns.cat, ps.cat, mass)
			if a.reps != nil {
				a.reps.AddEdgeMass(rec.Node, p, ns.cat, ps.cat, mass)
			}
		}
	}
	// …and newly visible edges contribute their full product mass.
	for _, p := range newPeers {
		ps := a.nodes[p]
		ns.peers = append(ns.peers, p)
		ps.peers = append(ps.peers, rec.Node)
		mass := ns.mult * ps.mult / (ns.weight * ps.weight)
		a.sums.AddEdgeMass(ns.cat, ps.cat, mass)
		if a.reps != nil {
			a.reps.AddEdgeMass(rec.Node, p, ns.cat, ps.cat, mass)
		}
	}
	a.gen.Add(1)
	return nil
}

// recordStarLocked records a node's star data from the first record that
// carries any (the caller has already validated the fields), backfilling
// the star mass of the node's earlier draws — which contributed exactly
// zero (deg 0, no neighbors) — so the estimate matches the batch path
// regardless of delivery order.
func (a *Accumulator) recordStarLocked(rec sample.NodeObservation, ns *nodeState) {
	cat, cnt := sample.CanonicalStarCounts(rec.NbrCat, rec.NbrCnt)
	ns.deg = sample.EffectiveStarDegree(rec.Deg, cnt)
	ns.starSeen = true
	ns.nbrCat = append([]int32(nil), cat...)
	ns.nbrCnt = append([]float64(nil), cnt...)
	if ns.mult > 0 {
		// Backfill the star mass of the node's earlier draws.
		a.sums.AddStar(ns.cat, ns.weight, ns.mult, ns.deg, ns.nbrCat, ns.nbrCnt)
		if a.reps != nil {
			a.reps.AddStar(rec.Node, ns.cat, ns.weight, ns.mult, ns.deg, ns.nbrCat, ns.nbrCnt)
		}
	}
}

// hasEdge reports whether the edge {ns, p} is already recorded. Incident
// lists are scanned linearly: category-graph workloads observe bounded
// degrees within G[S], and the scan avoids a second hash structure.
func (a *Accumulator) hasEdge(ns *nodeState, p int32) bool {
	return contains(ns.peers, p)
}

func contains(xs []int32, x int32) bool {
	for _, q := range xs {
		if q == x {
			return true
		}
	}
	return false
}

// Convergence quantifies how much the estimate moved between consecutive
// snapshots — the stopping signal of a live crawl (§6's sample-size sweeps
// ask exactly this question offline).
type Convergence struct {
	// DrawsSince is the number of draws ingested since the previous
	// snapshot (equal to Draws on the first snapshot).
	DrawsSince int
	// SizeDelta is max_A |Δ|Â|| / N, the largest relative category-size
	// movement; +Inf on the first snapshot.
	SizeDelta float64
	// WeightDelta is max_{A,B} |Δŵ(A,B)| over pairs finite in both
	// snapshots; +Inf on the first snapshot.
	WeightDelta float64
}

// Snapshot is a self-contained estimate of the category graph at one point
// in the stream. It shares no mutable state with the accumulator.
type Snapshot struct {
	// Seq numbers the snapshots of one accumulator from 1.
	Seq int64
	// Draws and Distinct describe the sample consumed so far.
	Draws    int
	Distinct int
	// Result is the full category-graph estimate (sizes, weights, method).
	Result *core.Result
	// Within holds the within-category density estimates ŵ(A,A).
	Within []float64
	// PopEstimate is the §4.3 collision estimate of |V| (+Inf until the
	// stream has seen a collision).
	PopEstimate float64
	// Converge compares this snapshot with the previous one.
	Converge Convergence
	// Boot holds the bootstrap replicate estimates of every estimand — the
	// raw material of percentile confidence intervals at any level (e.g.
	// Boot.SizeCI(c, 0.95)). Nil unless Config.Replicates is on.
	Boot *uncert.BootSnapshot
}

// Sizes returns the estimated category sizes (convenience accessor).
func (s *Snapshot) Sizes() []float64 { return s.Result.Sizes }

// Weights returns the estimated pair weights (convenience accessor).
func (s *Snapshot) Weights() *core.PairWeights { return s.Result.Weights }

// Snapshot computes the current estimate from the running sums in
// O(K² + pairs) and advances the convergence baseline. It fails on an empty
// accumulator and propagates estimator errors (e.g. a star size method on an
// induced stream).
func (a *Accumulator) Snapshot() (*Snapshot, error) {
	return a.snapshot(a.cfg, func() int { return len(a.nodes) })
}

// convergeFrom compares an estimate against the previous snapshot's sizes
// and weights (nil on the first snapshot, or after a reset baseline).
func convergeFrom(res *core.Result, lastSizes []float64, lastW *core.PairWeights, drawsSince int) Convergence {
	c := Convergence{DrawsSince: drawsSince}
	if lastSizes == nil {
		c.SizeDelta = math.Inf(1)
		c.WeightDelta = math.Inf(1)
		return c
	}
	for i, s := range res.Sizes {
		if d := math.Abs(s-lastSizes[i]) / res.N; d > c.SizeDelta {
			c.SizeDelta = d
		}
	}
	// The pair set only grows, so iterating the new weights covers the
	// union; pairs NaN in either snapshot are skipped.
	res.Weights.ForEach(func(x, y int32, w float64) {
		old := lastW.Get(x, y)
		if math.IsNaN(w) || math.IsNaN(old) {
			return
		}
		if d := math.Abs(w - old); d > c.WeightDelta {
			c.WeightDelta = d
		}
	})
	return c
}
