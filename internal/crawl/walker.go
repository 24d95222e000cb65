package crawl

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/stream"
)

// newStepper resolves the configured sampler to its transition kernel.
// The kernels themselves live in internal/sample (Stepper and the
// New*Stepper constructors): the batch Sample methods and the crawl
// controller drive the identical single definition, so the two paths
// cannot drift apart.
func newStepper(src graph.Source, cfg *Config) (sample.Stepper, error) {
	switch cfg.Sampler {
	case "", SamplerRW:
		return sample.NewRWStepper(src), nil
	case SamplerMHRW:
		return sample.NewMHRWStepper(src), nil
	case SamplerWRW:
		st, err := sample.NewWRWStepper(src, cfg.NodeWeight)
		if err != nil {
			return nil, fmt.Errorf("crawl: %w", err)
		}
		return st, nil
	case SamplerSWRW:
		// sample.NewSWRW computes the per-category stratification weights;
		// the returned WRW's NodeWeight field carries them.
		w, err := sample.NewSWRW(src, cfg.SWRW)
		if err != nil {
			return nil, fmt.Errorf("crawl: %w", err)
		}
		st, err := sample.NewWRWStepper(src, w.NodeWeight)
		if err != nil {
			return nil, fmt.Errorf("crawl: %w", err)
		}
		return st, nil
	}
	return nil, fmt.Errorf("crawl: unknown sampler %q (want %s, %s, %s or %s)",
		cfg.Sampler, SamplerRW, SamplerMHRW, SamplerWRW, SamplerSWRW)
}

// walker is one concurrent crawler: a deterministic trajectory (its rng is
// derived from the master seed and the walker index) that records draws
// into the shared accumulator and, per engine, into a private one.
type walker struct {
	id   int
	r    *rand.Rand
	step sample.Stepper
	cur  int32

	// obs is the walker's own observer under the star scenario (records
	// are per-node self-contained, so each walker re-delivering star data
	// is reconciled by the accumulator); nil under induced, where the
	// crawl-wide shared observer is used instead.
	obs *sample.StreamObserver

	// local is the walker's writer-private epoch under the star scenario:
	// draws accumulate here with no shared state touched, and runRound
	// flushes at the round barrier so the checkpoint snapshot sees the
	// whole round. Nil under induced.
	local *stream.Local

	// priv is the walker's private accumulator under EngineReplication
	// (per-walk sufficient statistics for the between-walk variance), with
	// privObs its private observer; both nil under EngineBootstrap.
	priv    *stream.Accumulator
	privObs *sample.StreamObserver

	// draws and node are the walker's live progress, readable without any
	// lock while the walker runs.
	draws atomic.Int64
	node  atomic.Int32
}

// runRound performs n draws: record the current node, ingest its
// observation, advance Thin transitions. The first error aborts the round.
// The drawing time, up to the round-barrier flush, is observed under
// crawl_walk_seconds.
func (w *walker) runRound(c *Crawl, n int) error {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		v := w.cur
		weight := w.step.Weight(v)
		if c.sharedObs != nil {
			// Induced scenario: Observe and Ingest under one lock, so a
			// record's peers are always already ingested no matter how the
			// walkers interleave. The private stream re-observes the draw
			// through the walker's own observer — its peers reference only
			// this walker's nodes, which is exactly the per-walk
			// observation the replication engine pools.
			c.obsMu.Lock()
			rec := c.sharedObs.Observe(v, weight)
			err := c.acc.Ingest(rec)
			c.obsMu.Unlock()
			if err != nil {
				return fmt.Errorf("crawl: walker %d: %w", w.id, err)
			}
			if w.priv != nil {
				if err := w.priv.Ingest(w.privObs.Observe(v, weight)); err != nil {
					return fmt.Errorf("crawl: walker %d (private): %w", w.id, err)
				}
			}
		} else {
			// Star scenario: records are per-node self-contained, so the
			// walker's own record serves the shared and the private
			// accumulator alike. The shared draw goes to the walker's
			// Local — private memory only.
			rec := w.obs.Observe(v, weight)
			if err := w.local.Ingest(rec); err != nil {
				return fmt.Errorf("crawl: walker %d: %w", w.id, err)
			}
			if w.priv != nil {
				if err := w.priv.Ingest(rec); err != nil {
					return fmt.Errorf("crawl: walker %d (private): %w", w.id, err)
				}
			}
		}
		w.draws.Add(1)
		w.node.Store(v)
		mDraws.Inc()
		for t := 0; t < c.cfg.Thin; t++ {
			w.cur = w.step.Step(w.r, w.cur)
		}
	}
	mWalkSec.ObserveSince(t0)
	// Round barrier: publish the walker's epoch so the checkpoint snapshot
	// sees every draw of this round. All walkers observe the same graph,
	// so per-node constants can never genuinely conflict — a dropped
	// record indicates corrupted observations and aborts the crawl.
	if w.local != nil {
		if _, dropped := w.local.Flush(); dropped > 0 {
			return fmt.Errorf("crawl: walker %d: epoch flush dropped %d records (conflicting per-node constants across walkers)", w.id, dropped)
		}
	}
	return nil
}
