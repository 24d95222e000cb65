package stream

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/uncert"
)

// view is the published state every Ingester serves estimates from: the
// primary Hansen–Hurwitz sums, the bootstrap replicates, the §4.3 collision
// scalars, the ingest generation and the convergence baseline. Every
// estimate of the paper is a ratio over these sufficient statistics, whether
// the draws arrived one at a time (Accumulator), per epoch
// (EpochAccumulator) or as merged worker exports (Pool); the three differ
// only in how they write the view, so the read half of Ingester — Config,
// Gen, Snapshot, Export — and restore live here once. Each Ingester embeds a
// view by value, which keeps the hot paths' field accesses direct.
type view struct {
	cfg Config
	// gen is the ingest generation (see Ingester.Gen). Writers advance it
	// inside the critical section that publishes what it counts, so a cut
	// taken under mu names exactly its state. Padded: every write and every
	// /estimate cache probe touches it.
	gen core.PaddedUint64
	// nodes counts the distinct nodes of a cut: the engine's node
	// directory, or the count a Pool merged at its last Rebuild.
	nodes interface{ len() int }

	// mu guards the published state below (and the Accumulator's node
	// directory). Writers hold it exclusively; reads that only copy or
	// count — the snapshot and export cuts, Draws, Distinct — share it.
	mu   sync.RWMutex
	sums *core.Sums
	// reps holds the bootstrap replicate sums (nil when the bootstrap is
	// off); every mutation of sums has a mirrored call on reps.
	reps *uncert.Replicates

	// Collision statistics for the §4.3 population-size estimator.
	psi1, psiInv, collisions float64

	// snapMu serializes snapshot computations. It guards the fields below:
	// the cut the snapshot estimates from, reused across snapshots, and the
	// published snapshot. Lock order: snapMu before mu.
	snapMu sync.Mutex
	cut    State
	// snap is the published snapshot, the estimate of the cut at generation
	// snap.Gen: every read at that generation shares it, and it is the
	// convergence baseline of the next one (nil before the first snapshot,
	// or after the baseline was reset).
	snap *Snapshot
	seq  int64
}

// init validates the configuration's identity parameters and allocates an
// empty view for it; nodes counts the distinct nodes of its cuts.
func (v *view) init(cfg Config, nodes interface{ len() int }) error {
	if cfg.K < 1 {
		return fmt.Errorf("stream: config needs K ≥ 1 categories, got %d", cfg.K)
	}
	if cfg.Replicates.B < 0 {
		return fmt.Errorf("stream: config needs ≥ 0 bootstrap replicates, got %d", cfg.Replicates.B)
	}
	v.cfg, v.nodes = cfg, nodes
	v.sums = core.NewSums(cfg.K, cfg.Star)
	v.cut = State{K: cfg.K, Star: cfg.Star, Sums: core.NewSums(cfg.K, cfg.Star)}
	if cfg.Replicates.Enabled() {
		reps, err := uncert.NewReplicates(cfg.K, cfg.Star, cfg.Replicates)
		if err != nil {
			return err
		}
		v.reps = reps
	}
	return nil
}

// Config returns the accumulator's configuration.
func (v *view) Config() Config { return v.cfg }

// Gen implements Ingester: the monotone ingest generation, readable without
// any lock.
func (v *view) Gen() uint64 { return v.gen.Load() }

// Snapshot returns the estimate at the current generation, in O(K² +
// pairs) when it must compute one, and fails on an empty view or on an
// estimator error (e.g. a star size method on an induced stream). The
// generation is read before anything else, and a published snapshot whose
// generation is at least that is returned as is — it includes every record
// acknowledged before the read — so concurrent readers, and a crawl
// checkpoint, at one generation share one snapshot: a reader that queued on
// snapMu behind a computation gets its result. Otherwise the view is copied
// into the reused cut under one read lock, the primary and replicate
// estimates run on the copy with mu released (writers wait only for the
// copy), and the result is published and becomes the convergence baseline.
func (v *view) Snapshot() (*Snapshot, error) {
	gen := v.gen.Load()
	v.snapMu.Lock()
	defer v.snapMu.Unlock()
	if v.snap != nil && v.snap.Gen >= gen {
		return v.snap, nil
	}
	defer mSnapshotSec.ObserveSince(time.Now())
	c := &v.cut
	if err := v.copyTo(c, v.cutLocked); err != nil {
		return nil, err
	}
	if c.Sums.Draws == 0 {
		return nil, fmt.Errorf("stream: empty accumulator (no draws ingested or merged yet)")
	}
	opts := core.Options{N: v.cfg.N, Size: v.cfg.Size}
	res, err := c.Sums.Estimate(opts)
	if err != nil {
		return nil, err
	}
	within, err := c.Sums.WithinWeights(res.Sizes)
	if err != nil {
		return nil, err
	}
	v.seq++
	snap := &Snapshot{
		Gen:         c.Gen,
		Seq:         v.seq,
		Draws:       int(c.Sums.Draws),
		Distinct:    int(c.Distinct),
		Result:      res,
		Within:      within,
		PopEstimate: core.PopulationSizeFromSums(c.Sums.Draws, c.Psi1, c.PsiInv, c.Collisions),
		Converge:    convergeFrom(res, int(c.Sums.Draws), v.snap),
	}
	if c.Reps != nil {
		snap.Boot = c.Reps.Snapshot(opts)
	}
	v.snap = snap
	return snap, nil
}

// Export implements Ingester: a consistent cut of the view, with the sums,
// collision scalars, replicates and generation all describing the same set
// of applied records. Exporting an empty view succeeds — the zero state
// merges as a no-op, which is exactly what a coordinator wants from a
// worker that has not ingested yet. The copy is two-phase (see copyTo), so
// writers are stalled only for the flat byte moves.
func (v *view) Export() (*State, error) { return v.export(v.cutLocked) }

// export copies the view into a fresh State (see copyTo). cut runs under
// the read lock of the copy and fills the State's Gen and Distinct (and may
// copy anything else that must describe the same cut).
func (v *view) export(cut func(*State)) (*State, error) {
	st := &State{K: v.cfg.K, Star: v.cfg.Star, Sums: core.NewSums(v.cfg.K, v.cfg.Star)}
	if err := v.copyTo(st, cut); err != nil {
		return nil, err
	}
	return st, nil
}

// cutLocked fills the generation and distinct count of a snapshot or export
// cut; the caller holds mu.
func (v *view) cutLocked(st *State) {
	st.Gen, st.Distinct = v.gen.Load(), int64(v.nodes.len())
}

// copyTo overwrites st — sums of the view's K and scenario — with the
// view's sums, replicates and collision scalars, and runs cut, all under
// one read lock. When st's replicates do not match the view's
// configuration (a fresh State, or a Pool rebuild that changed it), the
// lock is dropped, matching replicates — B vectors, grids and a pair arena
// with headroom for pairs created meanwhile — are allocated unlocked, and
// the copy retries. Writers racing a copy therefore wait only for flat
// byte moves.
func (v *view) copyTo(st *State, cut func(*State)) error {
	for {
		v.mu.RLock()
		var want, have uncert.Config
		if v.reps != nil {
			want = v.reps.Config()
		}
		if st.Reps != nil {
			have = st.Reps.Config()
		}
		if want == have {
			err := st.Sums.CopyFrom(v.sums)
			if err == nil && st.Reps != nil {
				err = st.Reps.CopyFrom(v.reps)
			}
			if err != nil {
				// Impossible by construction: the destination shares K, the
				// scenario and the replicate configuration.
				v.mu.RUnlock()
				panic(err)
			}
			st.Psi1, st.PsiInv, st.Collisions = v.psi1, v.psiInv, v.collisions
			cut(st)
			v.mu.RUnlock()
			return nil
		}
		repPairs := 0
		if v.reps != nil {
			repPairs = v.reps.PairCount()
		}
		v.mu.RUnlock()

		st.Reps = nil
		if want.Enabled() {
			reps, err := uncert.NewReplicates(st.K, st.Star, want)
			if err != nil {
				return err
			}
			reps.ReservePairs(repPairs + repPairs/8 + 4)
			st.Reps = reps
		}
	}
}

// restore adopts a validated State's sums, replicates and collision scalars
// into a freshly initialized view. No snapshot is published yet, so the
// first snapshot after a restore reports +Inf deltas.
func (v *view) restore(st *State) error {
	if err := v.sums.CopyFrom(st.Sums); err != nil {
		return err
	}
	if v.reps != nil {
		if err := v.reps.CopyFrom(st.Reps); err != nil {
			return err
		}
	}
	v.psi1, v.psiInv, v.collisions = st.Psi1, st.PsiInv, st.Collisions
	return nil
}
