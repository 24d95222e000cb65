package stream

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// ErrReadOnly is returned by the ingest methods of a Pool: a merge
// coordinator estimates from worker exports and never accepts its own
// records. Match with errors.Is to turn the sentinel into a protocol-level
// redirect ("ingest on the workers").
var ErrReadOnly = errors.New("stream: pool is read-only (it merges worker exports; ingest on the workers)")

// Pool is the coordinator-side accumulator of the distributed estimation
// tier: a read-only Ingester whose state is rebuilt from worker State
// exports instead of ingested record by record. Each Rebuild re-merges the
// supplied states from scratch — the merge algebra is the same
// core.Sums.Merge / uncert.Replicates.Merge the in-process paths use, so the
// pooled estimate (and, with replicates, every bootstrap CI) equals a single
// accumulator that ingested all worker streams, to the exactness conditions
// documented on core.Sums.Merge. Rebuilding from scratch rather than
// applying deltas is what makes worker failure tolerance trivial: a worker
// excluded from one Rebuild (dead, stale) simply costs its contribution and
// can rejoin later without any compensation bookkeeping. The O(K·B + pairs·B)
// rebuild runs once per coordinator poll interval, not per request.
//
// Pool is safe for concurrent use: Rebuild swaps the published view under a
// mutex, and snapshots are cached by the server layer off the generation,
// which advances once per Rebuild.
type Pool struct {
	cfg Config

	// gen advances once per Rebuild — the snapshot cache key, exactly like
	// the per-record generation of the live accumulators.
	gen atomic.Uint64

	// view is the merged state Rebuild swaps in; its replicates (nil
	// unless the last Rebuild carried them) fix the bootstrap configuration
	// Config reports. distinct is guarded by view.mu.
	view
	distinct int64
}

// NewPool returns an empty coordinator pool. cfg fixes the partition,
// scenario, population size and size method the coordinator estimates with;
// cfg.Replicates is ignored — the bootstrap configuration is adopted from
// the worker states at Rebuild (workers decide B and the seed, and all must
// agree for replicates to merge).
func NewPool(cfg Config) (*Pool, error) {
	cfg.Replicates = uncert.Config{}
	p := &Pool{cfg: cfg}
	if err := p.init(cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Rebuild replaces the pool's state with the merge of the given worker
// states. Every state must match the pool's partition and scenario; a
// mismatch fails the whole rebuild (identified by input index) and leaves
// the previous view serving. Replicates are all-or-nothing: the merged view
// carries bootstrap replicates only when EVERY input has them under one
// identical configuration — a partial bootstrap would silently misweight the
// missing workers' nodes in every replicate, so it is dropped instead (the
// primary estimate is unaffected). Rebuilding from zero states publishes an
// empty pool (snapshots fail until data arrives).
func (p *Pool) Rebuild(states []*State) error {
	sums := core.NewSums(p.cfg.K, p.cfg.Star)
	var psi1, psiInv, collisions float64
	var distinct int64
	withReps := len(states) > 0
	var repCfg uncert.Config
	for i, st := range states {
		if st == nil {
			return fmt.Errorf("stream: pool rebuild: state %d is nil", i)
		}
		if st.K != p.cfg.K {
			return fmt.Errorf("stream: pool rebuild: state %d covers %d categories, pool has %d", i, st.K, p.cfg.K)
		}
		if st.Star != p.cfg.Star {
			return fmt.Errorf("stream: pool rebuild: state %d has star=%v, pool has star=%v", i, st.Star, p.cfg.Star)
		}
		if err := sums.Merge(st.Sums); err != nil {
			return fmt.Errorf("stream: pool rebuild: state %d: %w", i, err)
		}
		psi1 += st.Psi1
		psiInv += st.PsiInv
		collisions += st.Collisions
		distinct += st.Distinct
		switch {
		case st.Reps == nil:
			withReps = false
		case i == 0 || !withReps:
			repCfg = st.Reps.Config()
		case st.Reps.Config() != repCfg:
			// Conflicting bootstrap configurations cannot merge; keep the
			// primary estimate and drop the CIs rather than fail the pool.
			withReps = false
		}
	}
	var reps *uncert.Replicates
	if withReps {
		var err error
		reps, err = uncert.NewReplicates(p.cfg.K, p.cfg.Star, repCfg)
		if err != nil {
			return fmt.Errorf("stream: pool rebuild: %w", err)
		}
		for i, st := range states {
			if err := reps.Merge(st.Reps); err != nil {
				return fmt.Errorf("stream: pool rebuild: state %d replicates: %w", i, err)
			}
		}
	}
	p.mu.Lock()
	if sums.Draws < p.lastDraws {
		// The merged view shrank (a worker went stale, or restarted empty):
		// a delta against the old baseline would be negative, so restart
		// convergence tracking as after a restore.
		p.lastSizes, p.lastW, p.lastDraws = nil, nil, 0
	}
	p.sums, p.reps = sums, reps
	p.psi1, p.psiInv, p.collisions = psi1, psiInv, collisions
	p.distinct = distinct
	p.mu.Unlock()
	p.gen.Add(1)
	return nil
}

// Config implements Ingester. Replicates reflects the bootstrap
// configuration adopted from the workers at the last Rebuild (zero until a
// rebuild carried replicates), so the serving layer's "are CIs available"
// probe works unchanged against a pool.
func (p *Pool) Config() Config {
	p.mu.Lock()
	defer p.mu.Unlock()
	cfg := p.cfg
	if p.reps != nil {
		cfg.Replicates = p.reps.Config()
	}
	return cfg
}

// Draws returns the number of draws in the merged view.
func (p *Pool) Draws() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.sums.Draws)
}

// Distinct returns the sum of the workers' distinct-node counts. Workers
// observe disjoint node sets under the partitioned deployment, where this is
// exact; overlapping crawls count shared nodes once per worker.
func (p *Pool) Distinct() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.distinct)
}

// Gen implements Ingester: it advances once per Rebuild, so snapshot caches
// keyed on it refresh exactly when the merged view changes.
func (p *Pool) Gen() uint64 { return p.gen.Load() }

// Ingest implements Ingester; a pool never accepts records.
func (p *Pool) Ingest(rec sample.NodeObservation) error { return ErrReadOnly }

// IngestBatch implements Ingester; a pool never accepts records.
func (p *Pool) IngestBatch(recs []sample.NodeObservation) (int, error) { return 0, ErrReadOnly }

// Snapshot computes the pooled estimate from the merged view — the same
// sequence the live accumulators run, including the bootstrap snapshot when
// the last Rebuild carried replicates, so /estimate?ci= on a coordinator
// serves exact merged-replicate CIs.
func (p *Pool) Snapshot() (*Snapshot, error) {
	return p.snapshot(p.cfg, func() int { return int(p.distinct) })
}

// Export implements Ingester: the merged view as a State of its own, which
// is what lets coordinators stack — a higher tier can pull /sums from a
// coordinator exactly as the coordinator pulls from its workers. Like the
// live accumulators' exports the copy is two-phase (see view.export), so
// /sums requests racing a Rebuild block it only for the flat byte moves; a
// Rebuild that changes the bootstrap configuration in between makes the
// export retry with a matching destination.
func (p *Pool) Export() (*State, error) {
	return p.export(p.cfg, func(st *State) {
		st.Gen, st.Distinct = p.gen.Load(), p.distinct
	})
}
