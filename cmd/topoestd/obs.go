package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
)

// HTTP surface instrumentation: one counter sample per request (endpoint ×
// status) and one latency observation per endpoint. The endpoint label is
// the registered route pattern, never the raw URL — raw paths would make
// the label set unbounded.
var (
	mHTTPReqs = obs.NewCounterVec("http_requests_total",
		"HTTP requests served, by route pattern and status code.", "endpoint", "code")
	mHTTPSec = obs.NewHistogramVec("http_request_seconds",
		"HTTP request latency by route pattern.", obs.LatencyBuckets(), "endpoint")
	mReadCache = obs.NewCounterVec("topoestd_read_cache_total",
		"Reads of /estimate, /sums and /categorygraph.tsv served from the job's cached body or graph (hit) or built for the read (miss).",
		"endpoint", "result")
)

// noteRead counts one successful read of a job's cached read layer.
func noteRead(endpoint string, hit bool) {
	result := "miss"
	if hit {
		result = "hit"
	}
	mReadCache.With(endpoint, result).Inc()
}

// newLogger builds the daemon's structured logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// statusRecorder captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route's handler with request counting and latency
// timing. The per-endpoint histogram child is resolved once at registration;
// the status-code label is resolved per request (cold — requests are
// network-scale events).
func instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := mHTTPSec.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		lat.ObserveSince(t0)
		mHTTPReqs.With(endpoint, strconv.Itoa(sr.code)).Inc()
	}
}

// registerPprof exposes the net/http/pprof profiling surface on the
// daemon's own mux (gated behind -pprof: profiling endpoints reveal
// internals and cost CPU while sampling, so they are opt-in).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
