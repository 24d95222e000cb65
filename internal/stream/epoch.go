package stream

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// The multi-core ingest architecture: thread-local accumulation with
// epoch-based exact merge.
//
// The previous multi-core design (a hash-partitioned ShardedAccumulator)
// still took one mutex per record — just a different mutex per node — and
// the committed benchmarks showed it losing to the single lock outright:
// cross-core cache-line traffic on the shard locks and counters cost more
// than the partition saved. This design removes shared state from the
// per-record path entirely. Each writer owns a Local that records draws
// into private, writer-owned memory; the directory is resolved once per
// DISTINCT node per epoch — at the node's first touch, one striped map
// lookup whose entry pointer the epoch keeps (entries are insert-only and
// their constants immutable, so the pointer and its category/weight stay
// valid). A Flush (every FlushEvery records, at a crawl round barrier, or
// at the end of an HTTP batch) folds the epoch into the published view in
// two short phases:
//
//  1. Per node, under a striped lock on the shared node directory: reserve
//     the node's draw interval [m, m+c) by advancing its published
//     multiplicity through the kept pointer. Only a node that was absent at
//     first touch is looked up again, and its constants (category, weight)
//     checked against whatever a racing writer inserted. Star data is
//     reconciled (late-star backfill, degree retrofit) only when the epoch
//     carried star data of its own that adds to the directory's view;
//     otherwise the epoch's draws are credited with the directory's current
//     view. Stripes are padded to a cache line.
//  2. Under the accumulator's single mutex: merge the epoch's core.Sums and
//     bootstrap replicates (core.Sums.Merge / uncert.Replicates.Merge) and
//     the collision scalars, then advance Gen by the number of applied
//     records. The serialized work is O(K + touched·B + pairs) per epoch —
//     amortized sub-nanosecond per record at any realistic epoch size.
//
// Exactness. All star-scenario statistics are linear in the per-node draw
// multiplicities except two: the colliding-pair count Σ_v m_v(m_v−1)/2 and
// Rew2's per-node squares Σ_v (m_v/w_v)². Both telescope: an epoch that
// advances a node from multiplicity m to m+c contributes exactly
// f(m+c) − f(m), which the flush computes from the reserved interval
// (AddNode/AddDraws with prev = m). Because reservation is serialized per
// node and the increments are pure additions, any interleaving of epoch
// merges sums to the pooled stream's statistics — the same ≤ 1e-9 agreement
// with a single-lock accumulator the sharded design had, now without per-
// record locks. (Between a flush's reservation and its merge the published
// collision count can transiently include draws not yet merged; the linear
// statistics behind sizes, weights and densities are unaffected, and the
// view is exact whenever no flush is mid-flight.)
//
// Visibility contract: records become visible to Snapshot, Draws and Gen
// when their epoch is FLUSHED, not when Ingest returns on a Local. The
// EpochAccumulator's own Ingest/IngestBatch flush internally before
// returning, so the Ingester-level contract — an acked record is included
// in any snapshot taken after a Gen read that postdates the ack — is
// unchanged from the single-lock accumulator.

// epochStripes is the size of the shared node directory's lock striping
// (power of two; 64 stripes keeps contention negligible far beyond the
// writer counts the benchmarks exercise).
const epochStripes = 64

// defaultFlushEvery is the auto-flush threshold of a Local when the
// accumulator was built with flushEvery = 0: large enough to amortize the
// flush to noise, small enough to keep the published view fresh and the
// epoch's node map cache-resident.
const defaultFlushEvery = 1024

// starData is one node's reconciled star data: its (possibly counts-derived)
// degree and canonical neighbor-category counts. seen marks that any star
// data arrived at all.
type starData struct {
	seen   bool
	deg    float64
	nbrCat []int32
	nbrCnt []float64
}

// reconcile folds star data attested by a record — validated, with
// canonical counts — into the view sd. Star data is recorded once per
// distinct node, from the first record that carries any; crawlers may send
// it on every record (concurrent crawlers feeding one stream), so a later
// delivery must agree with the view (sample.ReconcileStarData) and may only
// upgrade it: a larger explicit degree, or counts for a node recorded
// without any. reconcile returns the upgraded data, or the zero starData
// when the record adds nothing; a contradiction is an error. The result may
// alias the arguments and sd.
func (sd starData) reconcile(node int32, deg float64, nbrCat []int32, nbrCnt []float64) (starData, error) {
	if !sd.seen {
		return starData{seen: true, deg: sample.EffectiveStarDegree(deg, nbrCnt), nbrCat: nbrCat, nbrCnt: nbrCnt}, nil
	}
	d, ct, cn, err := sample.ReconcileStarData(node, deg, nbrCat, nbrCnt, sd.deg, sd.nbrCat, sd.nbrCnt)
	if err != nil || (d == sd.deg && len(ct) == len(sd.nbrCat)) {
		return starData{}, err
	}
	return starData{seen: true, deg: d, nbrCat: ct, nbrCnt: cn}, nil
}

// retro returns the star data owed to a node's earlier draws, which were
// credited with the view old, when the view is upgraded to sd: the degree
// delta, plus sd's counts when the list grew (it grows only from empty).
// Before any star data arrived a draw contributed exactly zero star mass,
// so a late first delivery is owed in full.
func (sd starData) retro(old starData) starData {
	owed := starData{seen: true, deg: sd.deg - old.deg}
	if len(sd.nbrCat) != len(old.nbrCat) {
		owed.nbrCat, owed.nbrCnt = sd.nbrCat, sd.nbrCnt
	}
	return owed
}

// clone returns sd with its own copies of the count slices, for storing
// data whose slices alias a record or a reused buffer.
func (sd starData) clone() starData {
	sd.nbrCat = append([]int32(nil), sd.nbrCat...)
	sd.nbrCnt = append([]float64(nil), sd.nbrCnt...)
	return sd
}

// sharedNode is the published per-node state in the accumulator's striped
// directory: the per-node constants every epoch must agree on, the flushed
// multiplicity, and the reconciled star data. Entries are insert-only and
// cat/weight never change after insert, so a *sharedNode taken under the
// stripe lock stays valid — and its constants readable without the lock —
// for the accumulator's lifetime. mult and star change under the stripe
// lock; star's slices are replaced, never mutated in place, so a reference
// read under the lock stays valid after release.
type sharedNode struct {
	mult   float64
	weight float64
	cat    int32
	star   starData
}

// nodeStripe is one lock-striped slice of the node directory, padded so
// that adjacent stripes' locks never share a cache line.
type nodeStripe struct {
	mu    sync.Mutex
	nodes map[int32]*sharedNode
	_     [40]byte
}

// EpochAccumulator is the multi-core accumulator: writers ingest into
// private Locals (NewLocal) and publish by flushing epochs, so the
// per-record hot path touches no shared state at all. It implements
// Ingester — its own Ingest/IngestBatch run an internal Local and flush
// before returning, preserving the single-lock accumulator's ack-visibility
// and batch-prefix semantics — and its snapshots equal a single-lock
// accumulator's for the same records to ≤ 1e-9 (see the package tests).
//
// The epoch design requires the star scenario. Star records are per-node
// self-contained (degree + neighbor-category counts), so epochs compose by
// pure addition once each node's draw interval is reserved. Induced records
// are cross-referential — an edge's mass couples the live multiplicities of
// two nodes — so induced streams must use the single-lock Accumulator.
type EpochAccumulator struct {
	cfg        Config
	flushEvery int

	stripes  [epochStripes]nodeStripe
	distinct core.PaddedInt64

	// gen is the ingest generation: advanced by each flush, by the number
	// of records the flush applied, inside the published-view critical
	// section. Padded: it is the one counter every flush and every
	// /estimate cache probe touches.
	gen core.PaddedUint64

	// flushGate serializes flushes against ExportFull. Flushes hold it
	// shared for the phase-1→phase-2 span (one RWMutex op per epoch, not
	// per record); ExportFull takes it exclusively so its cut never sees a
	// directory reservation whose sums merge is still mid-flight.
	flushGate sync.RWMutex

	// view is the published state: the merged sums and replicates, the
	// collision scalars, and the convergence baseline (Local.Flush phase 2
	// merges into it under view.mu).
	view

	// pool recycles the internal Locals behind Ingest/IngestBatch so the
	// compatibility path does not allocate an epoch (sums + replicate
	// grids) per call.
	pool sync.Pool
}

// NewEpochAccumulator returns an empty epoch-merged accumulator. The
// configuration must select the star scenario (see the type comment).
// flushEvery is the auto-flush threshold of its Locals in records (0 means
// 1024): larger epochs amortize the merge further, smaller ones publish
// sooner.
func NewEpochAccumulator(cfg Config, flushEvery int) (*EpochAccumulator, error) {
	ea := &EpochAccumulator{cfg: cfg, flushEvery: flushEvery}
	if err := ea.init(cfg); err != nil {
		return nil, err
	}
	if !cfg.Star {
		return nil, fmt.Errorf("stream: epoch-merged ingest requires the star scenario (induced edge masses couple nodes across epochs); use the single-lock Accumulator for induced streams")
	}
	if flushEvery < 0 {
		return nil, fmt.Errorf("stream: need flushEvery ≥ 0, got %d", flushEvery)
	}
	if flushEvery == 0 {
		ea.flushEvery = defaultFlushEvery
	}
	for i := range ea.stripes {
		ea.stripes[i].nodes = make(map[int32]*sharedNode)
	}
	ea.pool.New = func() any { return ea.newLocal(false) }
	return ea, nil
}

// Config returns the accumulator's configuration.
func (ea *EpochAccumulator) Config() Config { return ea.cfg }

// Gen implements Ingester: the monotone ingest generation, advanced at
// flush by the number of records the flush applied.
func (ea *EpochAccumulator) Gen() uint64 { return ea.gen.Load() }

// Draws returns the number of draws flushed into the published view so far.
// Records sitting in an unflushed Local are not yet counted — the
// flush-visibility contract (see the architecture comment above).
func (ea *EpochAccumulator) Draws() int { return int(ea.gen.Load()) }

// Distinct returns the number of distinct nodes in the published view.
func (ea *EpochAccumulator) Distinct() int { return int(ea.distinct.Load()) }

// stripeFor routes a node id to its directory stripe with a full-avalanche
// integer hash (the 32-bit "lowbias" mix), so adjacent crawler id ranges
// spread evenly.
func (ea *EpochAccumulator) stripeFor(node int32) *nodeStripe {
	h := uint32(node)
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return &ea.stripes[h&(epochStripes-1)]
}

// Ingest folds one node observation through an internal Local and flushes
// immediately, so the record is visible when the call returns — the
// drop-in compatibility path for callers that need per-record acks. Bulk
// writers should hold their own Local (NewLocal) instead and flush per
// epoch. A record whose node lost a constants race against a concurrent
// writer (first-writer-wins, as under the sharded design) is reported as a
// redraw conflict.
func (ea *EpochAccumulator) Ingest(rec sample.NodeObservation) error {
	l := ea.pool.Get().(*Local)
	defer ea.pool.Put(l)
	if err := l.Ingest(rec); err != nil {
		return err
	}
	if _, dropped := l.Flush(); dropped > 0 {
		return fmt.Errorf("stream: node %d lost a first-writer race on its per-node constants (category/weight/star data) against a concurrent writer", rec.Node)
	}
	return nil
}

// IngestBatch folds a batch in order through an internal Local — one epoch
// per batch — stopping at the first invalid record and flushing what was
// accepted. It returns how many leading records were accepted, which is the
// retry index of the /ingest 422 protocol: recs[n] is the offender.
//
// Batch isolation under concurrency matches the sharded predecessor: a
// node's constants are fixed by whichever writer lands it first, so whether
// recs[n] validates can depend on interleaved writers. Additionally, under
// the epoch design a whole batch's draws of one node are dropped at the
// merge (and counted in stream_ingest_rejected_total{reason="flush_conflict"})
// if that node's constants lost the race between this batch's validation
// and its flush — the returned count then overcounts by the dropped
// records. Conflicts a batch can see locally (against its own records or
// the already-published directory) are still reported per index.
func (ea *EpochAccumulator) IngestBatch(recs []sample.NodeObservation) (int, error) {
	l := ea.pool.Get().(*Local)
	defer ea.pool.Put(l)
	for i, rec := range recs {
		if err := l.Ingest(rec); err != nil {
			l.Flush()
			return i, err
		}
	}
	l.Flush()
	return len(recs), nil
}

// Snapshot computes the current estimate from the published view in
// O(K² + pairs). It sees exactly the flushed epochs — see the
// flush-visibility contract.
func (ea *EpochAccumulator) Snapshot() (*Snapshot, error) {
	return ea.snapshot(ea.cfg, ea.Distinct)
}

// localNode is one node's epoch-private state: the draw count of this
// epoch, the node's constants (from the directory entry at first touch, or
// fixed by the epoch's first record), and the directory entry itself when
// the node was already published at first touch (sh; nil otherwise — Flush
// then looks it up once more, since a racing writer may have inserted it).
// own holds star data the epoch ADDS to the directory's view (late star
// data, a degree upgrade, adopted counts); when own.seen is false the
// epoch's draws agree with the directory and are credited with its view at
// flush. own's slices reuse their backing arrays across epochs.
type localNode struct {
	node   int32
	cat    int32
	count  float64
	weight float64
	sh     *sharedNode
	own    starData
}

// Local is a writer-private accumulator over one EpochAccumulator: Ingest
// touches only writer-owned memory (plus one striped directory read per
// distinct node per epoch, and one per re-draw carrying star data the epoch
// does not own yet), and Flush publishes the epoch. A Local is NOT
// safe for concurrent use — it is the "one per walker / one per connection"
// half of the design; concurrency lives across Locals, not within one.
// Flush and the accumulator's snapshots may race freely with other Locals.
type Local struct {
	ea    *EpochAccumulator
	epoch map[int32]int32
	nodes []localNode
	recs  int

	// pending mirrors recs atomically for the stream_local_pending_records
	// gauge (written only by the owning writer, read by the metrics
	// scraper).
	pending core.PaddedInt64

	// sums/reps are the flush scratch: zeroed between epochs (Reset), so a
	// steady-state flush allocates nothing.
	sums *core.Sums
	reps *uncert.Replicates

	registered bool
}

// localRegistry tracks live registered Locals for the pending-records
// gauge.
var localRegistry = struct {
	sync.Mutex
	set map[*Local]struct{}
}{set: make(map[*Local]struct{})}

func init() {
	obs.NewGaugeFunc("stream_local_pending_records",
		"Records accepted by live epoch locals but not yet flushed into a published view.",
		func() float64 {
			localRegistry.Lock()
			defer localRegistry.Unlock()
			var n int64
			for l := range localRegistry.set {
				n += l.pending.Load()
			}
			return float64(n)
		})
}

// NewLocal returns a new writer-private Local. The caller owns it: one
// goroutine ingests, and Flush (or Close, when done) publishes. Locals
// auto-flush after the accumulator's flushEvery records as a safety valve.
func (ea *EpochAccumulator) NewLocal() *Local {
	return ea.newLocal(true)
}

func (ea *EpochAccumulator) newLocal(register bool) *Local {
	l := &Local{
		ea:    ea,
		epoch: make(map[int32]int32),
		sums:  core.NewSums(ea.cfg.K, true),
	}
	if ea.reps != nil {
		// Same config as the published replicates, so Merge cannot fail.
		reps, err := uncert.NewReplicates(ea.cfg.K, true, ea.cfg.Replicates)
		if err != nil {
			panic(err)
		}
		l.reps = reps
	}
	if register {
		l.registered = true
		localRegistry.Lock()
		localRegistry.set[l] = struct{}{}
		localRegistry.Unlock()
	}
	return l
}

// Pending returns the number of accepted records not yet flushed.
func (l *Local) Pending() int { return l.recs }

// Close flushes the Local and removes it from the pending-records gauge.
// The Local must not be used afterwards.
func (l *Local) Close() (applied, dropped int) {
	applied, dropped = l.Flush()
	if l.registered {
		localRegistry.Lock()
		delete(localRegistry.set, l)
		localRegistry.Unlock()
		l.registered = false
	}
	return applied, dropped
}

// resolve returns node's directory entry — sh when the epoch already holds
// it, else a map lookup (nil when the node is unpublished) — and the
// entry's current star view, under one stripe lock. The view's slices stay
// valid after release (replace-not-mutate).
func (ea *EpochAccumulator) resolve(node int32, sh *sharedNode) (*sharedNode, starData) {
	st := ea.stripeFor(node)
	st.mu.Lock()
	if sh == nil {
		sh = st.nodes[node]
	}
	var view starData
	if sh != nil {
		view = sh.star
	}
	st.mu.Unlock()
	return sh, view
}

// Ingest folds one node observation into the epoch. It runs the single-lock
// accumulator's record check (checkRecord) against the node's constants and
// star view as known to this epoch — its own earlier records, or the
// published directory — so a rejected record changes no state. Conflicts
// created by writers racing with this epoch surface at Flush instead (the
// epoch's draws of that node are dropped and counted); see IngestBatch on
// the EpochAccumulator.
func (l *Local) Ingest(rec sample.NodeObservation) error {
	// The node's constants and star view as this epoch knows them: its
	// earlier records (own star data first), else the directory entry. The
	// directory is consulted at most once per record, and not at all for a
	// re-drawn node whose record carries no star data.
	var ln *localNode
	var sh *sharedNode
	var view starData
	if idx, known := l.epoch[rec.Node]; known {
		ln = &l.nodes[idx]
		sh, view = ln.sh, ln.own
		if !view.seen && sh != nil && carriesStar(rec) {
			_, view = l.ea.resolve(rec.Node, sh)
		}
	} else {
		sh, view = l.ea.resolve(rec.Node, nil)
	}
	var cat int32
	var weight float64
	switch {
	case ln != nil:
		cat, weight = ln.cat, ln.weight
	case sh != nil:
		cat, weight = sh.cat, sh.weight
	}
	w, upgrade, err := checkRecord(&l.ea.cfg, rec, ln != nil || sh != nil, cat, weight, view)
	if err != nil {
		return err
	}
	// All checks passed: mutate the epoch.
	if ln == nil {
		n := len(l.nodes)
		if n < cap(l.nodes) {
			l.nodes = l.nodes[:n+1]
		} else {
			l.nodes = append(l.nodes, localNode{})
		}
		ln = &l.nodes[n]
		ln.node, ln.cat, ln.weight, ln.sh = rec.Node, rec.Cat, w, sh
		ln.count = 0
		ln.own.seen = false
		l.epoch[rec.Node] = int32(n)
	}
	if upgrade.seen {
		ln.own.seen = true
		ln.own.deg = upgrade.deg
		ln.own.nbrCat = append(ln.own.nbrCat[:0], upgrade.nbrCat...)
		ln.own.nbrCnt = append(ln.own.nbrCnt[:0], upgrade.nbrCnt...)
	}
	ln.count++
	l.recs++
	l.pending.Store(int64(l.recs))
	if l.recs >= l.ea.flushEvery {
		l.Flush()
	}
	return nil
}

// Flush publishes the epoch: reserves every node's draw interval in the
// shared directory (phase 1, striped locks), computes the epoch's batched
// statistics against the reserved intervals in writer-private memory, and
// merges them into the published view under one short critical section
// (phase 2). It returns how many records were applied and how many were
// dropped because their node's constants or star data lost a first-writer
// race since the epoch validated them (counted under reason
// "flush_conflict"). Flushing an empty epoch is a cheap no-op.
func (l *Local) Flush() (applied, dropped int) {
	if l.recs == 0 {
		return 0, 0
	}
	t0 := time.Now()
	ea := l.ea
	ea.flushGate.RLock()
	var psi1, psiInv, coll float64
	for i := range l.nodes {
		ln := &l.nodes[i]
		c := ln.count

		// Phase 1 for this node: reserve [m, m+c) and, when the epoch
		// brought its own star data, reconcile it into the directory. owed
		// is the upgrade owed to the m earlier draws; view is the star data
		// the epoch's c draws are credited with.
		st := ea.stripeFor(ln.node)
		st.mu.Lock()
		sh := ln.sh
		conflict := false
		if sh == nil {
			// Unpublished at first touch: insert, or check the constants
			// a racing writer published in the meantime.
			if sh = st.nodes[ln.node]; sh == nil {
				sh = &sharedNode{weight: ln.weight, cat: ln.cat}
				st.nodes[ln.node] = sh
				ea.distinct.Add(1)
			} else {
				conflict = ln.cat != sh.cat || ln.weight != sh.weight
			}
		}
		var up starData
		if !conflict && ln.own.seen {
			var err error
			up, err = sh.star.reconcile(ln.node, ln.own.deg, ln.own.nbrCat, ln.own.nbrCnt)
			conflict = err != nil
		}
		if conflict {
			st.mu.Unlock()
			dropped += int(c)
			mRejected.With("flush_conflict").Add(int64(c))
			continue
		}
		var owed starData
		if up.seen {
			owed = up.retro(sh.star)
			sh.star = up.clone()
		}
		m := sh.mult
		view := sh.star
		sh.mult += c
		st.mu.Unlock()

		// Batched epoch math against the reserved interval, in private
		// memory — the nonlinear statistics telescope exactly from prev=m
		// (see the architecture comment).
		w, cat := ln.weight, ln.cat
		l.sums.AddNode(cat, w, c, m)
		psi1 += c * w
		psiInv += c / w
		coll += m*c + c*(c-1)/2
		if l.reps != nil {
			l.reps.AddDraws(ln.node, cat, w, c, m)
		}
		if view.seen {
			l.sums.AddStar(cat, w, c, view.deg, view.nbrCat, view.nbrCnt)
			if l.reps != nil {
				l.reps.AddStar(ln.node, cat, w, c, view.deg, view.nbrCat, view.nbrCnt)
			}
		}
		if m > 0 && owed.seen {
			l.sums.AddStar(cat, w, m, owed.deg, owed.nbrCat, owed.nbrCnt)
			if l.reps != nil {
				l.reps.AddStar(ln.node, cat, w, m, owed.deg, owed.nbrCat, owed.nbrCnt)
			}
		}
		applied += int(c)
	}

	// Phase 2: one short critical section merges the epoch into the
	// published view and advances Gen by the applied records.
	ea.mu.Lock()
	if err := ea.sums.Merge(l.sums); err != nil {
		// Impossible by construction: the local shares cfg.K and scenario.
		ea.mu.Unlock()
		panic(err)
	}
	if ea.reps != nil {
		if err := ea.reps.Merge(l.reps); err != nil {
			ea.mu.Unlock()
			panic(err)
		}
	}
	ea.psi1 += psi1
	ea.psiInv += psiInv
	ea.collisions += coll
	ea.gen.Add(uint64(applied))
	ea.mu.Unlock()
	ea.flushGate.RUnlock()

	// Reset the epoch in place: every allocation (node slice, map buckets,
	// sums slices, replicate grids) is reused.
	l.sums.Reset()
	if l.reps != nil {
		l.reps.Reset()
	}
	clear(l.epoch)
	l.nodes = l.nodes[:0]
	l.recs = 0
	l.pending.Store(0)
	mIngested.Add(int64(applied))
	mFlushes.Inc()
	mFlushSec.ObserveSince(t0)
	return applied, dropped
}
