package stream

import (
	"fmt"

	"repro/internal/obs"
)

// Process-wide ingest instrumentation (obs.Default). The counters aggregate
// over every accumulator in the process — the serving daemon owns one, and
// every writer-local epoch publishes through the same flush path — so the
// totals are exactly what GET /metrics and /healthz want to report.
//
// Hot-path budget: the epoch-local ingest path costs ZERO shared atomics per
// record; applied records are counted once per flush (mIngested.Add(n)), and
// the single-lock Accumulator still pays one striped atomic add per record.
// The latency histograms are only touched on paths that are already micro-
// to millisecond-scale — snapshots, epoch flushes, and per-record ingest
// when the bootstrap replicate update dominates the record anyway.
var (
	mIngested = obs.NewCounter("stream_ingest_records_total",
		"Node observations successfully folded into any accumulator.")
	mRejected = obs.NewCounterVec("stream_ingest_rejected_total",
		"Node observations rejected at ingest validation, by reason.", "reason")
	mSnapshotSec = obs.NewHistogram("stream_snapshot_seconds",
		"Latency of accumulator snapshots (single-lock and epoch-merged, including bootstrap CI extraction).",
		obs.LatencyBuckets())
	mBootIngestSec = obs.NewHistogram("stream_bootstrap_ingest_seconds",
		"Per-record ingest latency when bootstrap replicates are enabled (includes the O(B) replicate update).",
		obs.LatencyBuckets())
	mFlushes = obs.NewCounter("stream_epoch_flushes_total",
		"Epoch flushes published by writer-local accumulators (including the one-per-call epochs behind EpochAccumulator.IngestBatch and the TakeLocal/PutLocal borrowers).")
	mFlushSec = obs.NewHistogram("stream_epoch_flush_seconds",
		"Latency of publishing one epoch (reserve + batched statistics + merge).",
		obs.LatencyBuckets())
	mFlushPhaseSec = obs.NewHistogramVec("stream_epoch_flush_phase_seconds",
		"Latency of one phase of an epoch flush: reserve (directory reservation and star reconcile), math (batched statistics and replicate increments) or publish (merge into the published view and epoch reset).",
		obs.LatencyBuckets(), "phase")
	mFlushReserveSec = mFlushPhaseSec.With("reserve")
	mFlushMathSec    = mFlushPhaseSec.With("math")
	mFlushPublishSec = mFlushPhaseSec.With("publish")
)

// IngestedTotal reports the process-wide count of successfully ingested
// records — surfaced by the daemon's /healthz.
func IngestedTotal() int64 { return mIngested.Value() }

// RejectedTotal reports the process-wide count of rejected records across
// all reasons.
func RejectedTotal() int64 { return mRejected.Total() }

// reject counts a validation failure under its reason label and returns the
// formatted error. The reject path is cold by definition — a label lookup
// per event is fine here, unlike on the applied-record path.
func reject(reason, format string, args ...any) error {
	mRejected.With(reason).Inc()
	return fmt.Errorf(format, args...)
}
