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
// scalars and the convergence baseline. Every estimate of the paper is a
// ratio over these sufficient statistics, whether the draws arrived one at a
// time (Accumulator), per epoch (EpochAccumulator) or as merged worker
// exports (Pool); the three differ only in how they write the view, so the
// read side — Snapshot, Export and restore — lives here once. Each Ingester
// embeds a view by value, which keeps the hot paths' field accesses direct.
type view struct {
	// mu guards every field below (and the Accumulator's node directory).
	mu   sync.Mutex
	sums *core.Sums
	// reps holds the bootstrap replicate sums (nil when the bootstrap is
	// off); every mutation of sums has a mirrored call on reps.
	reps *uncert.Replicates

	// Collision statistics for the §4.3 population-size estimator.
	psi1, psiInv, collisions float64

	// Convergence baseline: the previous snapshot's estimate (nil sizes
	// before the first snapshot, or after the baseline was reset).
	lastSizes []float64
	lastW     *core.PairWeights
	lastDraws float64
	seq       int64
}

// init validates the configuration's identity parameters and allocates an
// empty view for it.
func (v *view) init(cfg Config) error {
	if cfg.K < 1 {
		return fmt.Errorf("stream: config needs K ≥ 1 categories, got %d", cfg.K)
	}
	if cfg.Replicates.B < 0 {
		return fmt.Errorf("stream: config needs ≥ 0 bootstrap replicates, got %d", cfg.Replicates.B)
	}
	v.sums = core.NewSums(cfg.K, cfg.Star)
	if cfg.Replicates.Enabled() {
		reps, err := uncert.NewReplicates(cfg.K, cfg.Star, cfg.Replicates)
		if err != nil {
			return err
		}
		v.reps = reps
	}
	return nil
}

// snapshot computes the estimate from the view in O(K² + pairs) and
// advances the convergence baseline. cfg supplies the estimation options;
// distinct is read under mu.
func (v *view) snapshot(cfg Config, distinct func() int) (*Snapshot, error) {
	defer mSnapshotSec.ObserveSince(time.Now())
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sums.Draws == 0 {
		return nil, fmt.Errorf("stream: empty accumulator (no draws ingested or merged yet)")
	}
	opts := core.Options{N: cfg.N, Size: cfg.Size}
	res, err := v.sums.Estimate(opts)
	if err != nil {
		return nil, err
	}
	var within []float64
	if cfg.Star {
		within, err = v.sums.WithinWeightsStar(res.Sizes)
	} else {
		within, err = v.sums.WithinWeightsInduced()
	}
	if err != nil {
		return nil, err
	}
	v.seq++
	snap := &Snapshot{
		Seq:         v.seq,
		Draws:       int(v.sums.Draws),
		Distinct:    distinct(),
		Result:      res,
		Within:      within,
		PopEstimate: core.PopulationSizeFromSums(v.sums.Draws, v.psi1, v.psiInv, v.collisions),
		Converge:    convergeFrom(res, v.lastSizes, v.lastW, int(v.sums.Draws-v.lastDraws)),
	}
	if v.reps != nil {
		snap.Boot = v.reps.Snapshot(opts)
	}
	v.lastSizes = append([]float64(nil), res.Sizes...)
	v.lastW = res.Weights
	v.lastDraws = v.sums.Draws
	return snap, nil
}

// export copies the view into a fresh State. The copy is two-phase so that
// writers racing an export wait only for flat byte moves: a brief lock
// peeks the replicate shape, the destination (fresh sums, B replicate
// vectors and grids, a pair arena with headroom for pairs created meanwhile)
// is allocated unlocked, and a second critical section memcpys the state
// across. Only a Pool rebuild can change the replicate configuration between
// the two; the export then re-peeks and retries. cut runs inside the second
// critical section and fills the State's Gen and Distinct (and may copy
// anything else that must describe the same cut).
func (v *view) export(cfg Config, cut func(*State)) (*State, error) {
	for {
		v.mu.Lock()
		var repCfg uncert.Config
		repPairs := 0
		if v.reps != nil {
			repCfg, repPairs = v.reps.Config(), v.reps.PairCount()
		}
		v.mu.Unlock()

		st := &State{K: cfg.K, Star: cfg.Star, Sums: core.NewSums(cfg.K, cfg.Star)}
		if repCfg.Enabled() {
			reps, err := uncert.NewReplicates(cfg.K, cfg.Star, repCfg)
			if err != nil {
				return nil, err
			}
			reps.ReservePairs(repPairs + repPairs/8 + 4)
			st.Reps = reps
		}

		v.mu.Lock()
		var now uncert.Config
		if v.reps != nil {
			now = v.reps.Config()
		}
		if now != repCfg {
			v.mu.Unlock()
			continue
		}
		err := st.Sums.CopyFrom(v.sums)
		if err == nil && st.Reps != nil {
			err = st.Reps.CopyFrom(v.reps)
		}
		if err != nil {
			// Impossible by construction: the destination shares K, the
			// scenario and the replicate configuration.
			v.mu.Unlock()
			panic(err)
		}
		st.Psi1, st.PsiInv, st.Collisions = v.psi1, v.psiInv, v.collisions
		cut(st)
		v.mu.Unlock()
		return st, nil
	}
}

// restore adopts a validated State's sums, replicates and collision scalars
// into a freshly initialized view. The convergence baseline stays empty, so
// the first snapshot after a restore reports +Inf deltas.
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
