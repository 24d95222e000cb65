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
// value once returned. A snapshot holds the lock only to copy the
// sufficient statistics and estimates from the copy, and batches release
// the lock every batchChunk records (every record in induced streams with
// bootstrap replicates on), so a read beside a writer waits for at most one
// chunk. Ingest
// throughput, however, is bounded by one mutex; for multi-core ingest the
// EpochAccumulator gives each writer a private Local that touches no shared
// state per record and publishes whole epochs of records through a short
// two-phase merge (core.Sums.Merge / uncert.Replicates.Merge) — no locks on
// the hot path at all, amortized O(1) shared work per record, and snapshots
// identical to the single-lock path to ≤ 1e-9. The epoch design is exact
// for the star scenario, where records are per-node self-contained; see
// NewEpochAccumulator for why induced streams stay on the single-lock
// Accumulator. The architecture comment in epoch.go derives the merge's
// exactness and the flush-visibility contract.
//
// Every engine takes batches (Ingester.IngestBatch); a per-record writer
// holds a Local of the epoch engine, or calls the single-lock
// Accumulator's own Ingest, which an induced crawl needs to observe and
// ingest one record under one lock.
package stream

import (
	"fmt"
	"math"
	"sort"
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

// nodeState is what the single-lock accumulator remembers about one
// distinct node, in the directory's dense per-node state: the per-node
// constants the estimators re-weight on every draw (copied beside the
// multiplicity, so an induced edge replay reads a peer's mult, weight, cat
// and row from one contiguous record), plus — per scenario — the node's
// star data or its incident observed edges. The star data is nil until
// star data arrives, and always in induced accumulators, so an induced
// node costs 64 bytes here plus its peer list.
type nodeState struct {
	mult   float64
	weight float64
	cat    int32
	// row is 1 + the number of the node's packed bootstrap weight row in
	// the accumulator's row arena, or 0 before the row is built. Only
	// induced accumulators with replicates build rows, on the node's first
	// draw or first use as the far endpoint of a replayed edge.
	row uint32
	id  int32

	// Star scenario: the node's reconciled degree and neighbor-category
	// counts, recorded at first observation (as in the batch Observation).
	star *starData

	// Induced scenario: dense indices of the distinct observed peers, so a
	// re-draw can replay its marginal mass over every incident edge of G[S]
	// without a directory lookup per edge.
	peers []int32
}

// Ingester is the surface shared by the single-lock Accumulator, the
// EpochAccumulator and the read-only Pool: everything a crawler (or the
// topoestd daemon) needs to feed batches of observations in and read live
// estimates out. The read half is implemented once, on the embedded view.
// All implementations are safe for concurrent use.
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
	// IngestBatch flushes before returning; once per Rebuild for a Pool)
	// and can never tear. It is the cache key of choice for snapshot
	// consumers: if an IngestBatch call returned before Gen was read, and
	// a later Gen read returns the same value, then a Snapshot taken
	// between the two reads includes the batch's records.
	Gen() uint64
	// IngestBatch folds a batch in order, stopping at the first invalid
	// record; it returns how many leading records were applied — the retry
	// index for the caller. Neither engine applies a batch atomically: the
	// single-lock Accumulator publishes it in chunks (batchChunk records, or
	// one induced record with replicates on), so concurrent readers may see
	// a prefix of a batch in flight; see EpochAccumulator.IngestBatch for what
	// concurrent writers change.
	IngestBatch(recs []sample.NodeObservation) (int, error)
	// Snapshot returns the estimate at the current generation, computed in
	// O(K² + pairs) once per generation and shared by every caller at it.
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
// Its generation advances once per applied record, inside the critical
// section that applies it, so an Ingest call that returned has published
// its increment (see Ingester.Gen).
type Accumulator struct {
	// view is the published state; its mutex also guards the node states
	// and the rows, so a record is applied in one critical section.
	view
	// dir is the node directory; induced peer lists hold its dense indices.
	dir *directory[nodeState]
	// rows holds the packed bootstrap weight rows of induced nodes
	// (uncert.FillRow), so replaying an edge reads its far endpoint's
	// weights instead of hashing them.
	rows rowArena
	// newPeers and edges are ingestLocked's reused buffers for a record's
	// newly observed peers (dense indices) and its replicate edge replay,
	// guarded like the node states.
	newPeers []int32
	edges    []uncert.PeerEdge
	// repFold queues a star stream's replicate terms (nil unless star with
	// replicates on); every critical section folds it before it unlocks.
	repFold *uncert.ReplicateFold
}

// NewAccumulator returns an empty accumulator for the given configuration.
func NewAccumulator(cfg Config) (*Accumulator, error) {
	a := &Accumulator{dir: newDirectory[nodeState](), rows: newRowArena(cfg.Replicates.B)}
	if err := a.init(cfg, a.dir); err != nil {
		return nil, err
	}
	if cfg.Star && a.reps != nil {
		a.repFold = uncert.NewReplicateFold(cfg.K)
	}
	return a, nil
}

// unlock folds the star replicate terms the critical section queued and
// releases the lock, so a reader never sees the replicates behind the sums.
func (a *Accumulator) unlock() {
	if a.repFold != nil {
		a.repFold.Fold(a.reps)
	}
	a.mu.Unlock()
}

// Draws returns the number of draws ingested so far.
func (a *Accumulator) Draws() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return int(a.sums.Draws)
}

// Distinct returns the number of distinct nodes observed so far.
func (a *Accumulator) Distinct() int { return a.dir.len() }

// Ingest folds one node observation into the running sums in O(1 +
// |record|) — where |record| is the number of neighbor categories (star) or
// incident observed edges (induced re-draw). The record conventions are
// those of sample.NodeObservation: weight 0 means 1, star neighbor data
// rides on the first observation of a node, induced peers list each edge of
// G[S] exactly once. Records that fail validation are rejected without
// changing any state. Ingest is the single-lock engine's own method, not
// part of Ingester: it lets an induced crawl walker observe and ingest one
// record under one lock, so every peer a record cites is already applied.
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
	defer a.unlock()
	if err := a.ingestLocked(rec); err != nil {
		return err
	}
	mIngested.Inc()
	if a.reps != nil {
		mBootIngestSec.ObserveSince(t0)
	}
	return nil
}

// batchChunk is the most records IngestBatch applies per hold of the
// accumulator lock. Readers queued behind a batch get the lock between
// chunks, so a snapshot or export beside a writer waits for at most one
// chunk. Induced records with replicates on cost microseconds each (≈ 10–20
// µs at B = 200, which made a chunk ≈ 0.5 ms) and are timed one by one, so
// IngestBatch holds the lock for one of them at a time. Star records keep
// the chunks: at ≈ 3 µs or less per record the extra lock round trips have
// not been measured to pay. Star jobs and star crawls run epoch-merged, so
// only direct users of this engine (the facade's NewAccumulator, reference
// checks) send star batches here.
const batchChunk = 32

// IngestBatch folds a batch of observations in order, stopping at the first
// invalid record (previous records stay applied). It returns the number of
// records applied. The count is the retry contract: on error exactly the
// first n records are durable, so a retrying client must resend recs[n:]
// after fixing the offending record recs[n] (or recs[n+1:] after discarding
// it) — resending the whole batch double-ingests the prefix.
//
// The batch is applied in chunks of batchChunk records (one record in
// induced streams with replicates on), one critical section each, so a reader (Snapshot, Export,
// a checkpoint) may see a prefix of a batch that has not returned yet;
// every record of a returned batch is visible to reads that start after it
// returned.
func (a *Accumulator) IngestBatch(recs []sample.NodeObservation) (int, error) {
	chunk := batchChunk
	if a.reps != nil && !a.cfg.Star {
		chunk = 1
	}
	for lo := 0; lo < len(recs); lo += chunk {
		if i, err := a.ingestChunk(recs[lo:min(lo+chunk, len(recs))]); err != nil {
			return lo + i, err
		}
	}
	return len(recs), nil
}

// ingestChunk applies recs in one critical section, stopping at the first
// invalid record; it returns the number applied.
func (a *Accumulator) ingestChunk(recs []sample.NodeObservation) (int, error) {
	a.mu.Lock()
	defer a.unlock()
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

// checkRecord is the record check of both engines. It validates rec
// against cfg and, when the node is known, against the node's constants —
// its category and sampling weight — and its current star view. It returns
// the record's effective weight (the node's own when known) and the star
// data the record adds to view, zero when it adds nothing. A failing record
// is counted under its reject reason; the caller has changed no state.
func checkRecord(cfg *Config, rec sample.NodeObservation, known bool, cat int32, weight float64, view starData) (float64, starData, error) {
	if rec.Cat != graph.None && (rec.Cat < 0 || int(rec.Cat) >= cfg.K) {
		return 0, starData{}, reject("bad_category", "stream: node %d has category %d outside [0,%d)", rec.Node, rec.Cat, cfg.K)
	}
	// Only weight 0 means "unspecified, i.e. 1"; a negative, NaN, or
	// infinite weight is a broken crawler, and silently folding it in would
	// corrupt every Hansen–Hurwitz sum the node touches.
	if math.IsNaN(rec.Weight) || math.IsInf(rec.Weight, 0) || rec.Weight < 0 {
		return 0, starData{}, reject("bad_weight", "stream: node %d has invalid sampling weight %g (0 means 1; negative, NaN and infinite are rejected)", rec.Node, rec.Weight)
	}
	// Records carrying fields of the other scenario signal a mismatched
	// stream — reject loudly rather than silently ignore the data and
	// serve garbage estimates.
	carries := carriesStar(rec)
	if !cfg.Star && carries {
		return 0, starData{}, reject("scenario_mismatch", "stream: node %d carries star fields (deg/nbr_cat) but the accumulator runs the induced scenario", rec.Node)
	}
	if cfg.Star && len(rec.Peers) > 0 {
		return 0, starData{}, reject("scenario_mismatch", "stream: node %d carries induced peers but the accumulator runs the star scenario", rec.Node)
	}
	w := rec.Weight
	if w == 0 {
		w = 1
	}
	if known {
		// A node's category and sampling weight are per-node constants of
		// the design; a re-draw that contradicts the first observation is a
		// buggy or misrouted crawler and would silently skew every estimate
		// if we kept folding it in under the old metadata. An omitted weight
		// (0) on a re-draw inherits the recorded one — crawlers may send the
		// weight only on a node's first record.
		if rec.Cat != cat {
			return 0, starData{}, reject("redraw_conflict", "stream: node %d re-drawn with category %d, conflicting with its first observation (category %d)", rec.Node, rec.Cat, cat)
		}
		if rec.Weight != 0 && w != weight {
			return 0, starData{}, reject("redraw_conflict", "stream: node %d re-drawn with sampling weight %g, conflicting with its first observation (weight %g)", rec.Node, w, weight)
		}
		w = weight
	}
	if !carries {
		return w, starData{}, nil
	}
	if err := validateStarFields(cfg.K, rec); err != nil {
		return 0, starData{}, reject("bad_star", "stream: %w", err)
	}
	nbrCat, nbrCnt := canonicalStarCounts(rec.NbrCat, rec.NbrCnt)
	up, err := view.reconcile(rec.Node, rec.Deg, nbrCat, nbrCnt)
	if err != nil {
		return 0, starData{}, reject("star_conflict", "stream: %w", err)
	}
	return w, up, nil
}

// carriesStar reports whether rec carries any star data.
func carriesStar(rec sample.NodeObservation) bool {
	return len(rec.NbrCat) > 0 || len(rec.NbrCnt) > 0 || rec.Deg != 0
}

// effectiveStarDegree returns the node degree a star record implies: the
// explicit degree when given, else the sum of the reported neighbor counts
// (tolerating clients that only report counts; uncategorized neighbors are
// then invisible, as in a crawl of a partially labeled network).
func effectiveStarDegree(deg float64, nbrCnt []float64) float64 {
	if deg != 0 {
		return deg
	}
	var s float64
	for _, c := range nbrCnt {
		s += c
	}
	return s
}

// canonicalStarCounts returns neighbor-category counts in canonical form:
// sorted by category, duplicate categories aggregated, zero counts dropped.
// Wire records may list categories in any order and may or may not
// enumerate zero-count categories (e.g. a client building the list from map
// iteration), so everything stored or compared goes through this first —
// equality of canonical forms is then exactly semantic equality. The inputs
// are never modified; already-canonical slices are returned as-is.
func canonicalStarCounts(nbrCat []int32, nbrCnt []float64) ([]int32, []float64) {
	canonical := true
	for j := range nbrCat {
		if nbrCnt[j] == 0 || (j > 0 && nbrCat[j] <= nbrCat[j-1]) {
			canonical = false
			break
		}
	}
	if canonical {
		return nbrCat, nbrCnt
	}
	ord := make([]int, len(nbrCat))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return nbrCat[ord[a]] < nbrCat[ord[b]] })
	outCat := make([]int32, 0, len(nbrCat))
	outCnt := make([]float64, 0, len(nbrCnt))
	for _, i := range ord {
		if n := len(outCat); n > 0 && outCat[n-1] == nbrCat[i] {
			outCnt[n-1] += nbrCnt[i]
		} else {
			outCat = append(outCat, nbrCat[i])
			outCnt = append(outCnt, nbrCnt[i])
		}
	}
	w := 0
	for i := range outCat {
		if outCnt[i] != 0 {
			outCat[w], outCnt[w] = outCat[i], outCnt[i]
			w++
		}
	}
	return outCat[:w], outCnt[:w]
}

// validateStarFields checks a record's star fields against a K-category
// partition: matching array lengths, a finite non-negative degree, finite
// non-negative counts over in-range categories, and an explicit degree not
// below the counts sum (counts cover only categorized neighbors, so a
// smaller degree is impossible on any graph). Errors carry no package
// prefix — callers wrap them.
func validateStarFields(k int, rec sample.NodeObservation) error {
	if len(rec.NbrCat) != len(rec.NbrCnt) {
		return fmt.Errorf("node %d has %d neighbor categories but %d counts", rec.Node, len(rec.NbrCat), len(rec.NbrCnt))
	}
	if !(rec.Deg >= 0) || math.IsInf(rec.Deg, 0) {
		return fmt.Errorf("node %d has invalid degree %g", rec.Node, rec.Deg)
	}
	var sum float64
	for j, c := range rec.NbrCat {
		if c < 0 || int(c) >= k {
			return fmt.Errorf("node %d has neighbor category %d outside [0,%d)", rec.Node, c, k)
		}
		if !(rec.NbrCnt[j] >= 0) || math.IsInf(rec.NbrCnt[j], 0) {
			return fmt.Errorf("node %d has invalid neighbor count %g for category %d", rec.Node, rec.NbrCnt[j], c)
		}
		sum += rec.NbrCnt[j]
	}
	if rec.Deg > 0 && sum > rec.Deg {
		return fmt.Errorf("node %d reports degree %g below its categorized-neighbor count sum %g", rec.Node, rec.Deg, sum)
	}
	return nil
}

func (a *Accumulator) ingestLocked(rec sample.NodeObservation) error {
	e, known := a.dir.lookup(rec.Node)
	var ns *nodeState
	var view starData
	if known {
		ns = a.dir.at(e.idx)
		if ns.star != nil {
			view = *ns.star
		}
	}
	w, up, err := checkRecord(&a.cfg, rec, known, e.cat, e.weight, view)
	if err != nil {
		return err
	}
	// Validate induced peers before mutating anything.
	var newPeers []int32
	if !a.cfg.Star && len(rec.Peers) > 0 {
		newPeers = a.newPeers[:0]
		var have []int32
		if ns != nil {
			have = ns.peers
		}
		for _, p := range rec.Peers {
			if p == rec.Node {
				continue // self-loop
			}
			pe, ok := a.dir.lookup(p)
			if !ok {
				return reject("unknown_peer", "stream: peer %d of node %d not yet observed", p, rec.Node)
			}
			// Skip already-known edges and duplicates within this record's
			// own peer list.
			if contains(have, pe.idx) || contains(newPeers, pe.idx) {
				continue
			}
			newPeers = append(newPeers, pe.idx)
		}
		a.newPeers = newPeers
	}

	if !known {
		e, _ = a.dir.insert(rec.Node, rec.Cat, w)
		ns = a.dir.at(e.idx)
		ns.cat, ns.weight, ns.id = rec.Cat, w, rec.Node
	}
	// Star data that adds to the node's view — late star data, a degree
	// upgrade, adopted counts — is recorded, and the node's earlier draws,
	// which were credited with the old view, are owed the difference, so
	// the estimate matches the batch path regardless of delivery order.
	// The owed term is taken from the stored clone, whose slices no record
	// aliases: the replicate fold reads them when the critical section ends.
	if up.seen {
		sd := up.clone()
		ns.star = &sd
		if ns.mult > 0 {
			owed := sd.retro(view)
			a.sums.AddStar(ns.cat, ns.weight, ns.mult, owed.deg, owed.nbrCat, owed.nbrCnt)
			if a.repFold != nil {
				a.repFold.AddStar(rec.Node, ns.cat, ns.weight, ns.mult, owed.deg, owed.nbrCat, owed.nbrCnt)
			}
		}
	}
	prev := ns.mult
	ns.mult++
	a.sums.AddNode(ns.cat, ns.weight, 1, prev)
	a.psi1 += ns.weight
	a.psiInv += 1 / ns.weight
	a.collisions += prev // the new draw collides with every earlier draw of this node

	if a.cfg.Star {
		var sd starData
		if ns.star != nil {
			sd = *ns.star
		}
		a.sums.AddStar(ns.cat, ns.weight, 1, sd.deg, sd.nbrCat, sd.nbrCnt)
		if a.repFold != nil {
			a.repFold.AddDraws(rec.Node, ns.cat, ns.weight, 1, prev)
			a.repFold.AddStar(rec.Node, ns.cat, ns.weight, 1, sd.deg, sd.nbrCat, sd.nbrCnt)
		}
		a.gen.Add(1)
		return nil
	}
	if a.reps != nil {
		a.reps.LoadRow(rec.Node, a.rowOf(ns))
		a.reps.AddDraw(rec.Node, ns.cat, ns.weight, prev)
	}
	// Induced: a re-draw raises this node's multiplicity, which raises the
	// mass of every incident observed edge by m_peer/(w·w_peer)…
	edges := a.edges[:0]
	if prev > 0 {
		for _, p := range ns.peers {
			ps := a.dir.at(p)
			mass := ps.mult / (ns.weight * ps.weight)
			a.sums.AddEdgeMass(ns.cat, ps.cat, mass)
			if a.reps != nil {
				edges = a.queueEdge(edges, ns, ps, mass)
			}
		}
	}
	// …and newly visible edges contribute their full product mass.
	for _, p := range newPeers {
		ps := a.dir.at(p)
		ns.peers = append(ns.peers, p)
		ps.peers = append(ps.peers, e.idx)
		mass := ns.mult * ps.mult / (ns.weight * ps.weight)
		a.sums.AddEdgeMass(ns.cat, ps.cat, mass)
		if a.reps != nil {
			edges = a.queueEdge(edges, ns, ps, mass)
		}
	}
	// The replicates replay the record's edges grouped by peer category.
	if a.reps != nil {
		a.reps.AddPeerMass(rec.Node, ns.cat, edges)
		a.edges = edges
	}
	a.gen.Add(1)
	return nil
}

// queueEdge appends the replicate replay of the edge from ns to peer ps
// with primary mass mass, unless it adds nothing: an edge with an
// uncategorized endpoint builds no row.
func (a *Accumulator) queueEdge(edges []uncert.PeerEdge, ns, ps *nodeState, mass float64) []uncert.PeerEdge {
	if ns.cat == graph.None || ps.cat == graph.None {
		return edges
	}
	return append(edges, uncert.PeerEdge{Node: ps.id, Cat: ps.cat, Row: a.rowOf(ps), Mass: mass})
}

// rowOf returns ns's packed bootstrap weight row, building it on first use.
func (a *Accumulator) rowOf(ns *nodeState) []uint64 {
	if ns.row == 0 {
		var row []uint64
		ns.row, row = a.rows.alloc()
		uncert.FillRow(a.cfg.Replicates, ns.id, row)
		return row
	}
	return a.rows.get(ns.row)
}

// rowArenaChunkWords is the size of one row-arena chunk (64 KiB), or of one
// row when a row is larger.
const rowArenaChunkWords = 1 << 13

// rowArena stores fixed-length packed weight rows in chunks: growing it
// neither copies the rows already handed out nor reserves more than one
// spare chunk, which keeps the rows' share of the heap at their size. Rows
// are numbered from 1; 0 means "no row" in nodeState.row.
type rowArena struct {
	words, perChunk int
	chunks          [][]uint64
	n               int
}

func newRowArena(B int) rowArena {
	words := uncert.RowWords(B)
	return rowArena{words: words, perChunk: max(1, rowArenaChunkWords/max(words, 1))}
}

// alloc hands out the next zeroed row and its number.
func (ra *rowArena) alloc() (uint32, []uint64) {
	if ra.n == len(ra.chunks)*ra.perChunk {
		ra.chunks = append(ra.chunks, make([]uint64, ra.perChunk*ra.words))
	}
	ra.n++
	return uint32(ra.n), ra.get(uint32(ra.n))
}

// get returns row number r (r ≥ 1).
func (ra *rowArena) get(r uint32) []uint64 {
	i := int(r - 1)
	off := i % ra.perChunk * ra.words
	return ra.chunks[i/ra.perChunk][off : off+ra.words : off+ra.words]
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
// ask exactly this question offline). Snapshots are computed once per
// generation, so "previous" is the snapshot of the last generation anyone
// read, not the caller's own last read.
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
// in the stream. It shares no mutable state with the accumulator, and it is
// shared by every reader at its generation, so callers must not modify it.
type Snapshot struct {
	// Gen is the ingest generation of the cut it estimates.
	Gen uint64
	// Seq numbers the computed snapshots of one accumulator from 1: equal
	// Seq means the same snapshot, and Seq rises with Gen.
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

// convergeFrom compares an estimate over draws draws against the previous
// published snapshot (nil on the first snapshot, or after a reset baseline).
func convergeFrom(res *core.Result, draws int, prev *Snapshot) Convergence {
	if prev == nil {
		return Convergence{DrawsSince: draws, SizeDelta: math.Inf(1), WeightDelta: math.Inf(1)}
	}
	c := Convergence{DrawsSince: draws - prev.Draws}
	for i, s := range res.Sizes {
		if d := math.Abs(s-prev.Result.Sizes[i]) / res.N; d > c.SizeDelta {
			c.SizeDelta = d
		}
	}
	// The pair set only grows, so iterating the new weights covers the
	// union; pairs NaN in either snapshot are skipped.
	res.Weights.ForEach(func(x, y int32, w float64) {
		old := prev.Result.Weights.Get(x, y)
		if math.IsNaN(w) || math.IsNaN(old) {
			return
		}
		if d := math.Abs(w - old); d > c.WeightDelta {
			c.WeightDelta = d
		}
	})
	return c
}
