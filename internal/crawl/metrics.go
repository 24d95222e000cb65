package crawl

import (
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide crawl instrumentation (obs.Default). Counters aggregate over
// every crawl job the process ever ran; the gauges describe the most recent
// checkpoint — topoestd runs at most one job at a time, so "latest
// checkpoint" and "the running job" coincide there. The only per-draw cost
// is one striped atomic add (mDraws); everything else updates at round
// barriers, which are micro- to millisecond-scale already. A crawl's time
// splits into walking (mWalkSec, per walker and round), the round-barrier
// flush (stream_epoch_flush_phase_seconds) and the checkpoint
// (mCheckpointSec).
var (
	mDraws = obs.NewCounter("crawl_draws_total",
		"Walker draws recorded across all crawl jobs.")
	mCheckpoints = obs.NewCounter("crawl_checkpoints_total",
		"Stopping-rule checkpoints evaluated across all crawl jobs.")
	mWalkSec = obs.NewHistogram("crawl_walk_seconds",
		"Time one walker spends drawing in one round: stepping, observing and ingesting, the round-barrier flush excluded.",
		obs.LatencyBuckets())
	mCheckpointSec = obs.NewHistogram("crawl_checkpoint_seconds",
		"Latency of one stopping-rule checkpoint (snapshot or replication CI extraction).",
		obs.LatencyBuckets())
	mWalkerDraws = obs.NewGaugeVec("crawl_walker_draws",
		"Draws per walker at the latest checkpoint of the latest crawl job.", "walker")
	mSizeHW = obs.NewGaugeVec("crawl_size_ci_halfwidth",
		"CI half-width of each category-size estimate at the latest checkpoint (NaN while unresolved).", "cat")
	mWithinHW = obs.NewGaugeVec("crawl_within_ci_halfwidth",
		"CI half-width of each within-category weight at the latest checkpoint (NaN while unresolved).", "cat")

	// activeJobs backs the crawl_active_jobs gauge: incremented for the
	// lifetime of each Crawl.run goroutine.
	activeJobs atomic.Int64
)

func init() {
	obs.NewGaugeFunc("crawl_active_jobs",
		"Crawl jobs currently running in this process.",
		func() float64 { return float64(activeJobs.Load()) })
}

// DrawsTotal reports the process-wide count of recorded walker draws —
// surfaced by the daemon's /healthz.
func DrawsTotal() int64 { return mDraws.Value() }

// CheckpointsTotal reports the process-wide count of stopping-rule
// checkpoints evaluated.
func CheckpointsTotal() int64 { return mCheckpoints.Value() }

// publishCheckpoint refreshes the latest-checkpoint gauges: per-walker draw
// counts and the per-category CI half-widths the stopping rule just
// evaluated. Runs once per round barrier — label lookups are fine here.
func (c *Crawl) publishCheckpoint(cp *Checkpoint) {
	for _, w := range c.walkers {
		mWalkerDraws.With(strconv.Itoa(w.id)).Set(float64(w.draws.Load()))
	}
	for cat := range cp.SizeHW {
		l := strconv.Itoa(cat)
		mSizeHW.With(l).Set(cp.SizeHW[cat])
		mWithinHW.With(l).Set(cp.WithinHW[cat])
	}
}
