package main

import (
	"compress/gzip"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

func mergeTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Social(randx.New(42), gen.SocialConfig{
		N: 600, MeanDeg: 12, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 8, CommZipf: 0.8, Mixing: 0.35, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildWorkers samples one star stream off the test graph and partitions it
// node-disjointly (node mod nWorkers) across worker accumulators, plus a
// reference accumulator fed pick-selected records (nil = all of them).
func buildWorkers(t *testing.T, g *graph.Graph, nWorkers, draws int, boot uncert.Config, pick func(int32) bool) ([]*stream.Accumulator, *stream.Accumulator) {
	t.Helper()
	s, err := sample.NewRW(100).Sample(randx.New(77), g, draws)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N()), Replicates: boot}
	ref, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*stream.Accumulator, nWorkers)
	for i := range workers {
		if workers[i], err = stream.NewAccumulator(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range s.Nodes {
		rec := so.Observe(v, s.Weight(i))
		if pick == nil || pick(v) {
			if err := ref.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := workers[int(v)%nWorkers].Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	return workers, ref
}

// fetchEstimate GETs /estimate?ci=level from a handler and decodes it.
func fetchEstimate(t *testing.T, h http.Handler, level string) estimateDoc {
	t.Helper()
	w := get(t, h, "/estimate?ci="+level)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /estimate?ci=%s: %d %s", level, w.Code, w.Body)
	}
	var doc estimateDoc
	mustDecode(t, w.Body.Bytes(), &doc)
	return doc
}

func relDiff(a, b float64) float64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

func checkPtr(t *testing.T, what string, a, b *float64, tol float64) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Errorf("%s: presence differs (coordinator %v, reference %v)", what, a != nil, b != nil)
		return
	}
	if a != nil && relDiff(*a, *b) > tol {
		t.Errorf("%s: coordinator %v vs reference %v (> %g)", what, *a, *b, tol)
	}
}

func checkIv(t *testing.T, what string, a, b *[2]float64, tol float64) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Errorf("%s: CI presence differs (coordinator %v, reference %v)", what, a != nil, b != nil)
		return
	}
	if a == nil {
		return
	}
	if relDiff(a[0], b[0]) > tol || relDiff(a[1], b[1]) > tol {
		t.Errorf("%s: coordinator CI %v vs reference %v (> %g)", what, *a, *b, tol)
	}
}

// compareEstimates pins two /estimate documents to ≤ tol relative error on
// every size, within-weight, pair weight, the population estimate, and
// every CI endpoint.
func compareEstimates(t *testing.T, got, want estimateDoc, tol float64) {
	t.Helper()
	if got.Draws != want.Draws {
		t.Fatalf("coordinator covers %d draws, reference %d", got.Draws, want.Draws)
	}
	if len(got.Sizes) != len(want.Sizes) {
		t.Fatalf("coordinator has %d categories, reference %d", len(got.Sizes), len(want.Sizes))
	}
	for i := range got.Sizes {
		if relDiff(got.Sizes[i].Size, want.Sizes[i].Size) > tol {
			t.Errorf("category %d size: %v vs %v", i, got.Sizes[i].Size, want.Sizes[i].Size)
		}
		checkPtr(t, "within "+strconv.Itoa(i), got.Sizes[i].Within, want.Sizes[i].Within, tol)
		checkIv(t, "size CI "+strconv.Itoa(i), got.Sizes[i].CI, want.Sizes[i].CI, tol)
		checkIv(t, "within CI "+strconv.Itoa(i), got.Sizes[i].WithinCI, want.Sizes[i].WithinCI, tol)
	}
	checkPtr(t, "pop estimate", got.PopEstimate, want.PopEstimate, tol)
	checkIv(t, "pop CI", got.PopCI, want.PopCI, tol)
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("coordinator has %d weight entries, reference %d", len(got.Weights), len(want.Weights))
	}
	for i := range got.Weights {
		if got.Weights[i].A != want.Weights[i].A || got.Weights[i].B != want.Weights[i].B {
			t.Fatalf("weight entry %d covers pair {%d,%d}, reference {%d,%d}",
				i, got.Weights[i].A, got.Weights[i].B, want.Weights[i].A, want.Weights[i].B)
		}
		if relDiff(got.Weights[i].Weight, want.Weights[i].Weight) > tol {
			t.Errorf("weight {%d,%d}: %v vs %v", got.Weights[i].A, got.Weights[i].B, got.Weights[i].Weight, want.Weights[i].Weight)
		}
		checkIv(t, "weight CI", got.Weights[i].CI, want.Weights[i].CI, tol)
	}
}

type healthzMerge struct {
	Merge *mergeStatusDoc `json:"merge"`
}

func coordinatorHealth(t *testing.T, h http.Handler) mergeStatusDoc {
	t.Helper()
	w := get(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /healthz: %d %s", w.Code, w.Body)
	}
	var doc healthzMerge
	mustDecode(t, w.Body.Bytes(), &doc)
	if doc.Merge == nil {
		t.Fatalf("coordinator /healthz has no merge section: %s", w.Body)
	}
	return *doc.Merge
}

// TestMergeCoordinatorE2E is the headline distributed guarantee over real
// TCP: 4 worker daemons ingest a node-disjoint 4-way split of one stream,
// a coordinator pulls their encoded /sums and merges, and the coordinator's
// /estimate?ci= agrees with a single pooled process to ≤ 1e-9 — estimates
// and every bootstrap CI endpoint. Killing a worker keeps its last-good
// contribution (coverage intact) until the staleness bound passes, after
// which the coordinator equals the 3-worker reference exactly as before.
func TestMergeCoordinatorE2E(t *testing.T) {
	g := mergeTestGraph(t)
	boot := uncert.Config{B: 50, Seed: 9}
	workers, ref := buildWorkers(t, g, 4, 3000, boot, nil)
	refSrv := newServer(ref, g.CategoryNames())

	wsrvs := make([]*httptest.Server, len(workers))
	urls := make([]string, len(workers))
	for i, acc := range workers {
		wsrvs[i] = httptest.NewServer(newServer(acc, g.CategoryNames()))
		defer wsrvs[i].Close()
		urls[i] = wsrvs[i].URL
	}

	pool, err := stream.NewPool(stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMerger(pool, urls, 2*time.Millisecond, 2*time.Second, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	coord := newServer(pool, g.CategoryNames())
	coord.merger = m

	m.pollOnce(time.Now())
	compareEstimates(t, fetchEstimate(t, coord, "0.9"), fetchEstimate(t, refSrv, "0.9"), 1e-9)

	status := coordinatorHealth(t, coord)
	if status.WorkersTotal != 4 || status.WorkersUp != 4 {
		t.Fatalf("healthz reports %d/%d workers up, want 4/4", status.WorkersUp, status.WorkersTotal)
	}

	// Kill one worker. Its last-good state stays within the staleness bound,
	// so the merged estimate is still the full 4-worker pool.
	wsrvs[3].Close()
	m.pollOnce(time.Now())
	compareEstimates(t, fetchEstimate(t, coord, "0.9"), fetchEstimate(t, refSrv, "0.9"), 1e-9)
	status = coordinatorHealth(t, coord)
	if status.WorkersUp != 3 {
		t.Fatalf("healthz reports %d workers up after killing one, want 3", status.WorkersUp)
	}
	var dead *mergeWorkerDoc
	for i := range status.Workers {
		if status.Workers[i].URL == urls[3] {
			dead = &status.Workers[i]
		}
	}
	if dead == nil || dead.Up || dead.ConsecutiveFailures < 1 || dead.LastError == "" {
		t.Fatalf("dead worker status = %+v, want down with failures and an error", dead)
	}

	// Past the staleness bound the dead worker's contribution drops out, and
	// the coordinator must equal a 3-worker pooled reference — degraded
	// coverage, identical correctness.
	_, ref3 := buildWorkers(t, g, 4, 3000, boot, func(v int32) bool { return int(v)%4 != 3 })
	ref3Srv := newServer(ref3, g.CategoryNames())
	m.maxStale = 30 * time.Millisecond
	time.Sleep(45 * time.Millisecond)
	m.pollOnce(time.Now())
	compareEstimates(t, fetchEstimate(t, coord, "0.9"), fetchEstimate(t, ref3Srv, "0.9"), 1e-9)
}

// TestMergeStalenessIgnoresFetchTime pins that a worker's age counts from
// the round that fetched it: a slow worker in the same round must not push
// a fast one past the staleness bound before the rebuild.
func TestMergeStalenessIgnoresFetchTime(t *testing.T) {
	g := mergeTestGraph(t)
	workers, ref := buildWorkers(t, g, 2, 1000, uncert.Config{}, nil)
	fast := httptest.NewServer(newServer(workers[0], nil))
	defer fast.Close()
	slowSrv := newServer(workers[1], nil)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		slowSrv.ServeHTTP(w, r)
	}))
	defer slow.Close()

	pool, err := stream.NewPool(stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMerger(pool, []string{fast.URL, slow.URL}, time.Second, 2*time.Second, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	m.pollOnce(time.Now())
	if got, want := pool.Draws(), ref.Draws(); got != want {
		t.Fatalf("pool has %d draws after one round, want both workers' %d", got, want)
	}
}

// TestSumsEndpoint pins the worker half of the wire protocol: content type,
// codec version header, a decodable body, and transparent gzip.
func TestSumsEndpoint(t *testing.T) {
	g := mergeTestGraph(t)
	workers, _ := buildWorkers(t, g, 1, 500, uncert.Config{B: 10, Seed: 4}, nil)
	srv := newServer(workers[0], nil)

	w := get(t, srv, "/sums")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /sums: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("content type %q, want %q", ct, wire.ContentType)
	}
	if v := w.Header().Get(wire.VersionHeader); v != strconv.Itoa(wire.Version) {
		t.Fatalf("version header %q, want %d", v, wire.Version)
	}
	st, err := wire.Decode(w.Body.Bytes())
	if err != nil {
		t.Fatalf("decode /sums body: %v", err)
	}
	if int(st.Sums.Draws) != workers[0].Draws() {
		t.Fatalf("decoded state has %v draws, worker has %d", st.Sums.Draws, workers[0].Draws())
	}

	// Same bytes under gzip when the client accepts it.
	req := httptest.NewRequest("GET", "/sums", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("content encoding %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != w.Body.String() {
		t.Fatal("gzip body does not decompress to the identity encoding")
	}
}

func TestCoordinatorIngestForbidden(t *testing.T) {
	pool, err := stream.NewPool(stream.Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(pool, nil)
	w := post(t, srv, "/ingest", `{"node":1,"cat":0}`)
	if w.Code != http.StatusForbidden {
		t.Fatalf("POST /ingest on a coordinator: %d %s, want 403", w.Code, w.Body)
	}
}

// TestMergeFaultInjection drives pollOnce against misbehaving workers: one
// healthy, one answering 500, one hanging past the pull timeout, one
// flapping (good, then 500). The pool must always be the merge of the
// last-good states, /healthz must name the failures, and failed workers
// must back off rather than be hammered every round.
func TestMergeFaultInjection(t *testing.T) {
	g := mergeTestGraph(t)
	accs, _ := buildWorkers(t, g, 2, 800, uncert.Config{}, nil)
	good, flakySrc := accs[0], accs[1]
	goodDraws, flakyDraws := good.Draws(), flakySrc.Draws()

	var goodCalls, errCalls, hangCalls, flapCalls atomic.Int64
	goodSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		goodCalls.Add(1)
		newServer(good, nil).ServeHTTP(w, r)
	}))
	defer goodSrv.Close()
	errSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		errCalls.Add(1)
		http.Error(w, "synthetic failure", http.StatusInternalServerError)
	}))
	defer errSrv.Close()
	hangSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hangCalls.Add(1)
		<-r.Context().Done() // hold until the coordinator gives up
	}))
	defer hangSrv.Close()
	flapSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if flapCalls.Add(1) > 1 {
			http.Error(w, "flapped", http.StatusInternalServerError)
			return
		}
		newServer(flakySrc, nil).ServeHTTP(w, r)
	}))
	defer flapSrv.Close()

	pool, err := stream.NewPool(stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMerger(pool,
		[]string{goodSrv.URL, errSrv.URL, hangSrv.URL, flapSrv.URL},
		time.Millisecond, 150*time.Millisecond, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	coord := newServer(pool, nil)
	coord.merger = m

	now := time.Now()
	m.pollOnce(now)
	if got := pool.Draws(); got != goodDraws+flakyDraws {
		t.Fatalf("pool has %d draws after round 1, want %d (good) + %d (flapping)", got, goodDraws, flakyDraws)
	}
	status := coordinatorHealth(t, coord)
	if status.WorkersUp != 2 {
		t.Fatalf("round 1: %d workers up, want 2", status.WorkersUp)
	}

	// The failed workers are inside their backoff horizon: an immediate
	// re-poll must not contact them again.
	ec, hc := errCalls.Load(), hangCalls.Load()
	m.pollOnce(now)
	if errCalls.Load() != ec || hangCalls.Load() != hc {
		t.Fatalf("failed workers re-polled inside their backoff window (err %d→%d, hang %d→%d)",
			ec, errCalls.Load(), hc, hangCalls.Load())
	}

	// Clear the horizons: the flapping worker now 500s, but its last-good
	// state keeps its contribution in the pool and /healthz marks it down.
	for _, w := range m.workers {
		w.mu.Lock()
		w.nextTry = time.Time{}
		w.mu.Unlock()
	}
	m.pollOnce(time.Now())
	if got := pool.Draws(); got != goodDraws+flakyDraws {
		t.Fatalf("pool lost the flapping worker's last-good state: %d draws, want %d", got, goodDraws+flakyDraws)
	}
	status = coordinatorHealth(t, coord)
	if status.WorkersUp != 1 {
		t.Fatalf("round 2: %d workers up, want only the good one", status.WorkersUp)
	}
	for _, wd := range status.Workers {
		if wd.URL == flapSrv.URL && (wd.Up || wd.LastError == "") {
			t.Fatalf("flapping worker status = %+v, want down with an error", wd)
		}
	}
}

// TestGracefulShutdownFlushesDeferredLocals is the shutdown regression: a
// record acknowledged just before SIGTERM must be in the final checkpoint
// frame the process writes on its way out. The epoch job takes one record
// as JSON and one as a TOPOREC1 batch, which streams through a borrowed
// writer-private local; checkpoints are shutdown-only, so only the final
// frame can carry them. The signal path itself (NotifyContext → Shutdown →
// srv.shutdown) is exercised by raising a real SIGTERM at a running
// listenAndServe.
func TestGracefulShutdownFlushesDeferredLocals(t *testing.T) {
	dir := t.TempDir()
	reg, err := job.NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := reg.Create(job.Spec{Name: job.DefaultName, K: 3, Star: true, N: 50})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerWithJobs(reg, def)
	if w := post(t, srv, "/ingest", `{"node":1,"cat":0,"deg":2,"nbr_cat":[1],"nbr_cnt":[2]}`); w.Code != 200 {
		t.Fatalf("JSON ingest: %d %s", w.Code, w.Body)
	}
	body, err := wire.EncodeRecords([]sample.NodeObservation{{Node: 2, Cat: 1, Deg: 1, NbrCat: []int32{0}, NbrCnt: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if w := postBin(t, srv, "/ingest", body); w.Code != 200 {
		t.Fatalf("binary ingest: %d %s", w.Code, w.Body)
	}

	done := make(chan error, 1)
	go func() { done <- listenAndServe("127.0.0.1:0", srv, srv.shutdown) }()
	time.Sleep(100 * time.Millisecond) // let the signal handler install
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			t.Fatalf("listenAndServe returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graceful shutdown did not complete within 5s")
	}
	data, err := os.ReadFile(filepath.Join(dir, job.DefaultName+".ckpt"))
	if err != nil {
		t.Fatalf("no checkpoint written at shutdown: %v", err)
	}
	cp, _ := wire.LastCheckpoint(data)
	if cp == nil {
		t.Fatal("checkpoint file holds no intact frame")
	}
	if cp.Gen != 2 || len(cp.State.Nodes) != 2 {
		t.Fatalf("final frame at gen %d with %d nodes, want both acknowledged records (gen 2, 2 nodes)", cp.Gen, len(cp.State.Nodes))
	}
}

// TestMergerRunLoopAndShutdown runs the real poll loop (not the pollOnce
// seam) against a live worker and stops it through server.shutdown.
func TestMergerRunLoopAndShutdown(t *testing.T) {
	g := mergeTestGraph(t)
	accs, _ := buildWorkers(t, g, 1, 300, uncert.Config{}, nil)
	ws := httptest.NewServer(newServer(accs[0], nil))
	defer ws.Close()

	pool, err := stream.NewPool(stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMerger(pool, []string{ws.URL}, 5*time.Millisecond, time.Second, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	coord := newServer(pool, nil)
	coord.merger = m
	go m.run()

	deadline := time.Now().Add(5 * time.Second)
	for pool.Draws() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pool.Draws() != accs[0].Draws() {
		t.Fatalf("pool has %d draws, worker has %d", pool.Draws(), accs[0].Draws())
	}
	coord.shutdown() // must stop the poll loop and return
}
