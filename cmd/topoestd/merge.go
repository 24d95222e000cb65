package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Coordinator metrics: per-worker pull traffic plus liveness/staleness
// gauges, labeled by worker URL so one scrape shows which vantage point is
// lagging. Staleness is a scrape-time gauge: it keeps growing while a worker
// is down even though no pull succeeds.
var (
	mMergePulls = obs.NewCounterVec("merge_pulls_total",
		"Successful /sums pulls per worker.", "worker")
	mMergeFailures = obs.NewCounterVec("merge_pull_failures_total",
		"Failed /sums pulls per worker (timeouts, non-200s, decode errors).", "worker")
	mMergeBytes = obs.NewCounterVec("merge_pull_bytes_total",
		"Encoded bytes pulled per worker (pre-decompression).", "worker")
	mMergeUp = obs.NewGaugeVec("merge_worker_up",
		"1 while the worker's most recent pull succeeded, 0 after a failure.", "worker")
	mMergeStaleness = obs.NewGaugeFuncVec("merge_worker_staleness_seconds",
		"Seconds since the worker's state was last fetched successfully (+Inf before the first).", "worker")
)

// mergeWorker is one polled vantage point. The mutex guards everything
// below it: pollOnce's parallel fetchers write, the staleness gauge and the
// /healthz status read.
type mergeWorker struct {
	url string

	mu        sync.Mutex
	state     *stream.State // last good decode, nil before the first
	fetchedAt time.Time     // start of the round that fetched state
	up        bool
	fails     int       // consecutive failures, 0 after a success
	nextTry   time.Time // backoff horizon; zero = due now
	lastErr   string
}

// merger polls a set of topoestd workers for their encoded sufficient
// statistics and rebuilds a stream.Pool from the decoded states after every
// round. Failure tolerance is the last-good rule: a worker that stops
// answering keeps contributing its most recent state until it exceeds
// maxStale, after which only its contribution drops out — the pool always
// serves, built from whatever subset of workers is fresh enough.
type merger struct {
	pool     *stream.Pool
	workers  []*mergeWorker
	interval time.Duration
	timeout  time.Duration
	maxStale time.Duration
	client   *http.Client

	stop chan struct{}
	done chan struct{}
}

// newMerger wires a coordinator over the given worker base URLs (scheme +
// host[:port], no path). The pool defines the partition/scenario every
// worker must match.
func newMerger(pool *stream.Pool, urls []string, interval, timeout, maxStale time.Duration) (*merger, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("merge mode needs at least one worker URL")
	}
	m := &merger{
		pool:     pool,
		interval: interval,
		timeout:  timeout,
		maxStale: maxStale,
		// The default transport negotiates gzip transparently; the timeout
		// is enforced per fetch via context so a hung worker cannot stall
		// the poll loop past its slot.
		client: &http.Client{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, raw := range urls {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("empty worker URL in -merge-from")
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("worker URL %q must start with http:// or https://", raw)
		}
		if seen[u] {
			return nil, fmt.Errorf("worker URL %q listed twice in -merge-from", u)
		}
		seen[u] = true
		w := &mergeWorker{url: u}
		m.workers = append(m.workers, w)
		mMergeUp.With(u).Set(0)
		mMergeStaleness.Register(func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			if w.state == nil {
				return math.Inf(1)
			}
			return time.Since(w.fetchedAt).Seconds()
		}, u)
	}
	return m, nil
}

// run is the poll loop: an immediate first round (so the coordinator serves
// as soon as any worker answers), then one round per interval until stop.
func (m *merger) run() {
	defer close(m.done)
	m.pollOnce(time.Now())
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.pollOnce(now)
		}
	}
}

// stopWait terminates the poll loop and waits for an in-flight round to
// finish (bounded by the per-fetch timeout).
func (m *merger) stopWait() {
	close(m.stop)
	<-m.done
}

// pollOnce runs one fetch-and-rebuild round: every worker whose backoff
// horizon has passed is fetched in parallel, then the pool is rebuilt from
// all states still within the staleness bound. It is the synchronous seam
// the fault-injection tests drive directly.
func (m *merger) pollOnce(now time.Time) {
	var wg sync.WaitGroup
	for _, w := range m.workers {
		w.mu.Lock()
		due := !now.Before(w.nextTry)
		w.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(w *mergeWorker) {
			defer wg.Done()
			st, n, err := m.fetch(w.url)
			w.mu.Lock()
			defer w.mu.Unlock()
			if err != nil {
				w.up = false
				w.fails++
				w.lastErr = err.Error()
				w.nextTry = now.Add(backoff(m.interval, w.fails))
				mMergeFailures.With(w.url).Inc()
				mMergeUp.With(w.url).Set(0)
				slog.Warn("merge pull failed", "worker", w.url, "consecutive", w.fails, "err", err)
				return
			}
			w.state = st
			w.fetchedAt = now
			w.up = true
			w.fails = 0
			w.lastErr = ""
			w.nextTry = time.Time{}
			mMergePulls.With(w.url).Inc()
			mMergeBytes.With(w.url).Add(int64(n))
			mMergeUp.With(w.url).Set(1)
		}(w)
	}
	wg.Wait()

	states := make([]*stream.State, 0, len(m.workers))
	for _, w := range m.workers {
		w.mu.Lock()
		if w.state != nil && now.Sub(w.fetchedAt) <= m.maxStale {
			states = append(states, w.state)
		}
		w.mu.Unlock()
	}
	if err := m.pool.Rebuild(states); err != nil {
		// States were validated against the pool at decode; a rebuild
		// failure means workers disagree with each other and the last
		// consistent pool keeps serving.
		slog.Error("merge rebuild failed; keeping previous pool", "err", err)
	}
}

// fetch pulls and decodes one worker's /sums, returning the decoded state
// and the on-the-wire payload size.
func (m *merger) fetch(url string) (*stream.State, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/sums", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return nil, 0, fmt.Errorf("GET /sums: %s: %s", resp.Status, strings.TrimSpace(string(snippet)))
	}
	if v := resp.Header.Get(wire.VersionHeader); v != "" {
		ver, err := strconv.Atoi(v)
		if err != nil || ver < 1 {
			return nil, 0, fmt.Errorf("GET /sums: unparseable %s header %q", wire.VersionHeader, v)
		}
		if ver > wire.Version {
			return nil, 0, fmt.Errorf("GET /sums: worker speaks codec version %d, this coordinator decodes up to %d (upgrade the coordinator)", ver, wire.Version)
		}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	st, err := wire.Decode(body)
	if err != nil {
		return nil, 0, err
	}
	cfg := m.pool.Config()
	if st.K != cfg.K || st.Star != cfg.Star {
		return nil, 0, fmt.Errorf("worker serves k=%d star=%v, coordinator runs k=%d star=%v", st.K, st.Star, cfg.K, cfg.Star)
	}
	return st, len(body), nil
}

// backoff returns the retry delay after the given number of consecutive
// failures: exponential on the poll interval, capped at 64×, with ±25%
// jitter so a fleet of coordinators does not re-probe a recovering worker
// in lockstep.
func backoff(interval time.Duration, fails int) time.Duration {
	shift := fails - 1
	if shift > 6 {
		shift = 6
	}
	d := interval << shift
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// mergeStatusDoc is the "merge" section of a coordinator's /healthz.
type mergeStatusDoc struct {
	WorkersTotal int              `json:"workers_total"`
	WorkersUp    int              `json:"workers_up"`
	IntervalS    float64          `json:"interval_s"`
	MaxStaleS    float64          `json:"max_stale_s"`
	Workers      []mergeWorkerDoc `json:"workers"`
}

type mergeWorkerDoc struct {
	URL                 string   `json:"url"`
	Up                  bool     `json:"up"`
	StalenessS          *float64 `json:"staleness_s"` // null before the first successful pull
	Gen                 uint64   `json:"gen"`
	Draws               int      `json:"draws"`
	ConsecutiveFailures int      `json:"consecutive_failures"`
	LastError           string   `json:"last_error,omitempty"`
}

// status reports per-worker health for /healthz.
func (m *merger) status() mergeStatusDoc {
	doc := mergeStatusDoc{
		WorkersTotal: len(m.workers),
		IntervalS:    m.interval.Seconds(),
		MaxStaleS:    m.maxStale.Seconds(),
	}
	for _, w := range m.workers {
		w.mu.Lock()
		wd := mergeWorkerDoc{
			URL:                 w.url,
			Up:                  w.up,
			ConsecutiveFailures: w.fails,
			LastError:           w.lastErr,
		}
		if w.state != nil {
			stale := time.Since(w.fetchedAt).Seconds()
			wd.StalenessS = &stale
			wd.Gen = w.state.Gen
			wd.Draws = int(w.state.Sums.Draws)
		}
		w.mu.Unlock()
		if wd.Up {
			doc.WorkersUp++
		}
		doc.Workers = append(doc.Workers, wd)
	}
	return doc
}
