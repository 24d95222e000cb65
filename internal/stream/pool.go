package stream

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// ErrReadOnly is returned by the IngestBatch method of a Pool: a merge
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
// mutex and advances the generation, which the published snapshot is keyed
// on, once per Rebuild, inside the same critical section. Snapshot serves
// the same sequence the live accumulators run, including the bootstrap
// snapshot when the last Rebuild carried replicates, so /estimate?ci= on a
// coordinator serves exact merged-replicate CIs. Export returns the merged
// view as a State of its own, which is what lets coordinators stack: a
// higher tier pulls /sums from a coordinator exactly as the coordinator
// pulls from its workers. The export is two-phase (see view.copyTo), so
// /sums requests racing a Rebuild block it only for the flat byte moves,
// and a Rebuild that changes the bootstrap configuration in between makes
// the export retry with a matching destination.
type Pool struct {
	// view is the merged state Rebuild swaps in; its replicates (nil
	// unless the last Rebuild carried them) fix the bootstrap configuration
	// Config reports, and its node count is a nodeCount.
	view
}

// nodeCount is a Pool's distinct-node count: the sum over the states of
// its last Rebuild, replaced under view.mu.
type nodeCount int64

func (n nodeCount) len() int { return int(n) }

// NewPool returns an empty coordinator pool. cfg fixes the partition,
// scenario, population size and size method the coordinator estimates with;
// cfg.Replicates is ignored — the bootstrap configuration is adopted from
// the worker states at Rebuild (workers decide B and the seed, and all must
// agree for replicates to merge).
func NewPool(cfg Config) (*Pool, error) {
	cfg.Replicates = uncert.Config{}
	p := &Pool{}
	if err := p.init(cfg, nodeCount(0)); err != nil {
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
	// snapMu guards the published snapshot, which is the convergence
	// baseline (see view). The generation advances inside the same
	// critical section as the swap, so a cut's Gen names exactly its state.
	p.snapMu.Lock()
	p.mu.Lock()
	if p.snap != nil && sums.Draws < float64(p.snap.Draws) {
		// The merged view shrank (a worker went stale, or restarted empty):
		// a delta against the old baseline would be negative, so restart
		// convergence tracking as after a restore.
		p.snap = nil
	}
	p.sums, p.reps = sums, reps
	p.psi1, p.psiInv, p.collisions = psi1, psiInv, collisions
	p.nodes = nodeCount(distinct)
	p.gen.Add(1)
	p.mu.Unlock()
	p.snapMu.Unlock()
	return nil
}

// Config implements Ingester. Replicates reflects the bootstrap
// configuration adopted from the workers at the last Rebuild (zero until a
// rebuild carried replicates), so the serving layer's "are CIs available"
// probe works unchanged against a pool.
func (p *Pool) Config() Config {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cfg := p.cfg
	if p.reps != nil {
		cfg.Replicates = p.reps.Config()
	}
	return cfg
}

// Draws returns the number of draws in the merged view.
func (p *Pool) Draws() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return int(p.sums.Draws)
}

// Distinct returns the sum of the workers' distinct-node counts. Workers
// observe disjoint node sets under the partitioned deployment, where this is
// exact; overlapping crawls count shared nodes once per worker.
func (p *Pool) Distinct() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.nodes.len()
}

// IngestBatch implements Ingester; a pool never accepts records.
func (p *Pool) IngestBatch(recs []sample.NodeObservation) (int, error) { return 0, ErrReadOnly }
