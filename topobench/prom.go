package main

import (
	"bytes"
	"strconv"
	"strings"
)

// promSample is one /metrics scrape: series key ("name{labels}") to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format. Comment lines and
// lines that do not end in a number are skipped.
func parseProm(body []byte) promSample {
	out := promSample{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		s := strings.TrimSpace(string(line))
		if s == "" || s[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(s, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(s[i+1:], 64)
		if err != nil {
			continue
		}
		out[s[:i]] = v
	}
	return out
}

// minus returns the per-series change from before to p.
func (p promSample) minus(before promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the series of family name whose label text contains every one of
// the label fragments (e.g. `endpoint="/jobs/{job}/ingest"`).
func (p promSample) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range p {
		fam, lab, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// ratio divides and maps an empty base to 0, so a layer that did no work
// reports 0 rather than NaN (which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// daemonLayers maps a /metrics delta over one run onto the benchmark's
// per-layer metric names. Every ratio is listed next to its base.
// Job-labelled families are summed over the benchmark's jobs, whose names
// all start with jobName.
func daemonLayers(d promSample) []layerMetric {
	jl := `job="` + jobName
	ingestEP := `endpoint="/jobs/{job}/ingest"`
	estimateEP := `endpoint="/jobs/{job}/estimate"`
	records := d.sum("topoestd_job_ingest_records_total", jl)
	flushes := d.sum("stream_epoch_flushes_total")
	frames := d.sum("topoestd_job_checkpoint_frames_total")
	snaps := d.sum("stream_snapshot_seconds_count")
	estimates := d.sum("http_request_seconds_count", estimateEP)
	return []layerMetric{
		{"topoestd.http.busy_s", d.sum("http_request_seconds_sum"), "s"},
		{"topoestd.http.requests", d.sum("http_request_seconds_count"), "count"},
		{"topoestd.ingest.busy_s", d.sum("http_request_seconds_sum", ingestEP), "s"},
		{"topoestd.ingest.requests", d.sum("http_request_seconds_count", ingestEP), "count"},
		{"job.ingest.busy_s", d.sum("topoestd_job_ingest_seconds_sum", jl), "s"},
		{"job.ingest.records", records, "count"},
		{"job.ingest.bytes_per_record", ratio(d.sum("topoestd_job_ingest_bytes_total", jl), records), "B/record"},
		{"stream.flush.busy_s", d.sum("stream_epoch_flush_seconds_sum"), "s"},
		{"stream.flushes", flushes, "count"},
		{"stream.records_per_flush", ratio(d.sum("stream_ingest_records_total"), flushes), "records/flush"},
		{"stream.snapshot.busy_s", d.sum("stream_snapshot_seconds_sum"), "s"},
		{"stream.snapshots", snaps, "count"},
		{"topoestd.estimate.requests", estimates, "count"},
		{"job.snapshot_recompute_ratio", ratio(snaps, estimates), "ratio"},
		{"stream.bootstrap_ingest.busy_s", d.sum("stream_bootstrap_ingest_seconds_sum"), "s"},
		{"stream.rejected", d.sum("stream_ingest_rejected_total"), "count"},
		{"job.checkpoint.busy_s", d.sum("topoestd_job_checkpoint_seconds_sum", jl), "s"},
		{"job.checkpoint.frames", frames, "count"},
		{"job.checkpoint.bytes_per_frame", ratio(d.sum("topoestd_job_checkpoint_bytes_total", jl), frames), "B/frame"},
		{"crawl.checkpoint.busy_s", d.sum("crawl_checkpoint_seconds_sum"), "s"},
		{"crawl.checkpoints", d.sum("crawl_checkpoints_total"), "count"},
		{"crawl.draws", d.sum("crawl_draws_total"), "count"},
	}
}
