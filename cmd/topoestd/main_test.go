package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// testServer builds a single-tenant server over the engine the daemon's
// registry picks for the scenario: epoch-merged for star, single-lock for
// induced.
func testServer(t *testing.T, k int, star bool, n float64) (*server, stream.Ingester) {
	t.Helper()
	cfg := stream.Config{K: k, Star: star, N: n}
	var acc stream.Ingester
	var err error
	if star {
		acc, err = stream.NewEpochAccumulator(cfg, 0)
	} else {
		acc, err = stream.NewAccumulator(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return newServer(acc, nil), acc
}

func post(t *testing.T, srv http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// TestIngestSingleAndArray exercises both accepted POST /ingest body shapes
// and the error paths.
func TestIngestSingleAndArray(t *testing.T) {
	srv, acc := testServer(t, 3, true, 0)
	w := post(t, srv, "/ingest", `{"node":1,"cat":0,"deg":2,"nbr_cat":[1],"nbr_cnt":[2]}`)
	if w.Code != 200 {
		t.Fatalf("single ingest: %d %s", w.Code, w.Body)
	}
	w = post(t, srv, "/ingest", `[{"node":2,"cat":1,"deg":3,"nbr_cat":[0],"nbr_cnt":[2]},
		{"node":3,"cat":2,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]}]`)
	if w.Code != 200 {
		t.Fatalf("array ingest: %d %s", w.Code, w.Body)
	}
	var resp map[string]int
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["ingested"] != 2 || resp["draws"] != 3 {
		t.Fatalf("resp = %v", resp)
	}
	if acc.Draws() != 3 {
		t.Fatalf("draws = %d", acc.Draws())
	}
	if w = post(t, srv, "/ingest", `{"node":`); w.Code != 400 {
		t.Fatalf("bad JSON: %d", w.Code)
	}
	if w = post(t, srv, "/ingest", `{"node":9,"cat":7}`); w.Code != 422 {
		t.Fatalf("invalid record: %d", w.Code)
	}
	w = post(t, srv, "/ingest", `{"node":9,"deg":2,"nbr_cat":[0],"nbr_cnt":[2]}`)
	if w.Code != 422 || !strings.Contains(w.Body.String(), "missing") {
		t.Fatalf("missing cat should be rejected, got %d %s", w.Code, w.Body)
	}
	if acc.Draws() != 3 {
		t.Fatalf("rejected records were ingested: draws = %d", acc.Draws())
	}
	if w = get(t, srv, "/ingest"); w.Code != 405 {
		t.Fatalf("GET /ingest: %d", w.Code)
	}
}

// spaceReader yields an endless run of JSON whitespace.
type spaceReader struct{}

func (spaceReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestIngestOversizedBody posts one byte over the ingest body cap: the
// answer is a 413 naming the cap, the daemon keeps serving (the next normal
// ingest succeeds), and the oversized read buffer is not pooled.
func TestIngestOversizedBody(t *testing.T) {
	srv, acc := testServer(t, 3, true, 0)
	req := httptest.NewRequest("POST", "/ingest", io.LimitReader(spaceReader{}, maxIngestBody+1))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), strconv.Itoa(maxIngestBody)) {
		t.Fatalf("oversized body: %d %s, want 413 naming the %d-byte cap", w.Code, w.Body, maxIngestBody)
	}
	if w := post(t, srv, "/ingest", `{"node":1,"cat":0,"deg":2,"nbr_cat":[1],"nbr_cnt":[2]}`); w.Code != 200 {
		t.Fatalf("ingest after the oversized body: %d %s", w.Code, w.Body)
	}
	if acc.Draws() != 1 {
		t.Fatalf("draws = %d, want 1", acc.Draws())
	}
	// Drain the pool (a fresh buffer means it is empty): nothing over the
	// pooling cap may have gone back.
	for i := 0; i < 64; i++ {
		buf := ingestBodyPool.Get().(*bytes.Buffer)
		if buf.Cap() > maxPooledBody {
			t.Fatalf("a %d-byte body buffer went back to the pool (cap %d)", buf.Cap(), maxPooledBody)
		}
		if buf.Cap() == 0 {
			break
		}
	}
}

// TestEstimateEndpointMatchesBatch pushes a full crawl through the HTTP
// layer and checks the served estimate against the batch pipeline.
func TestEstimateEndpointMatchesBatch(t *testing.T) {
	g, err := gen.Social(randx.New(21), gen.SocialConfig{
		N: 400, MeanDeg: 10, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 6, CommZipf: 0.8, Mixing: 0.3, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	N := float64(g.N())
	s, err := sample.NewRW(300).Sample(randx.New(22), g, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, star := range []bool{true, false} {
		srv, _ := testServer(t, g.NumCategories(), star, N)
		so, err := sample.NewStreamObserver(g, star)
		if err != nil {
			t.Fatal(err)
		}
		var recs []sample.NodeObservation
		for i, v := range s.Nodes {
			recs = append(recs, so.Observe(v, s.Weight(i)))
			if len(recs) == 256 || i == len(s.Nodes)-1 {
				body, err := json.Marshal(recs)
				if err != nil {
					t.Fatal(err)
				}
				if w := post(t, srv, "/ingest", string(body)); w.Code != 200 {
					t.Fatalf("ingest: %d %s", w.Code, w.Body)
				}
				recs = recs[:0]
			}
		}
		w := get(t, srv, "/estimate")
		if w.Code != 200 {
			t.Fatalf("estimate: %d %s", w.Code, w.Body)
		}
		var doc estimateDoc
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Draws != s.Len() {
			t.Fatalf("draws = %d, want %d", doc.Draws, s.Len())
		}
		var o *sample.Observation
		if star {
			o, err = sample.ObserveStar(g, s)
		} else {
			o, err = sample.ObserveInduced(g, s)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Estimate(o, core.Options{N: N})
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Sizes) != g.NumCategories() {
			t.Fatalf("%d size entries", len(doc.Sizes))
		}
		for _, se := range doc.Sizes {
			if d := math.Abs(se.Size - want.Sizes[se.Cat]); d > 1e-9 {
				t.Fatalf("star=%v size[%d] = %g, want %g", star, se.Cat, se.Size, want.Sizes[se.Cat])
			}
		}
		for _, we := range doc.Weights {
			if d := math.Abs(we.Weight - want.Weights.Get(we.A, we.B)); d > 1e-9 {
				t.Fatalf("star=%v w(%d,%d) = %g, want %g", star, we.A, we.B, we.Weight, want.Weights.Get(we.A, we.B))
			}
		}
		// TSV export round-trips through the catgraph layer.
		w = get(t, srv, "/categorygraph.tsv")
		if w.Code != 200 || !bytes.Contains(w.Body.Bytes(), []byte("# category graph")) {
			t.Fatalf("tsv: %d %.60s", w.Code, w.Body)
		}
		if got := strings.Count(w.Body.String(), "\nsize\t"); got != g.NumCategories() {
			t.Fatalf("tsv has %d size rows, want %d", got, g.NumCategories())
		}
	}
}

// TestIngestErrorReportsAppliedCount checks the retry-safe protocol: when a
// batch fails partway, the 422 body carries the number of durably applied
// leading records so a client can resend only the remainder — resending the
// whole batch would double-ingest the prefix.
func TestIngestErrorReportsAppliedCount(t *testing.T) {
	srv, acc := testServer(t, 3, true, 0)
	w := post(t, srv, "/ingest", `[
		{"node":1,"cat":0,"deg":1,"nbr_cat":[1],"nbr_cnt":[1]},
		{"node":2,"cat":1,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]},
		{"node":3,"cat":9},
		{"node":4,"cat":2}]`)
	if w.Code != 422 {
		t.Fatalf("partial batch: %d %s", w.Code, w.Body)
	}
	var doc struct {
		Error    string `json:"error"`
		Ingested int    `json:"ingested"`
		Total    int    `json:"total"`
		Index    int    `json:"index"`
	}
	mustDecode(t, w.Body.Bytes(), &doc)
	if doc.Ingested != 2 || doc.Total != 4 || doc.Index != 2 || doc.Error == "" {
		t.Fatalf("error body = %+v, want ingested=2 total=4 index=2", doc)
	}
	if acc.Draws() != 2 {
		t.Fatalf("draws = %d, want the applied 2-record prefix", acc.Draws())
	}
	// The documented retry: drop the applied prefix, fix the offender,
	// resend the remainder.
	w = post(t, srv, "/ingest", `[{"node":3,"cat":2},{"node":4,"cat":2}]`)
	if w.Code != 200 {
		t.Fatalf("retry remainder: %d %s", w.Code, w.Body)
	}
	if acc.Draws() != 4 {
		t.Fatalf("draws = %d after retry, want 4", acc.Draws())
	}
	// Pre-validation rejections (missing cat) apply nothing — ingested = 0
	// while index still points at the offender, not at the applied count.
	w = post(t, srv, "/ingest", `[{"node":8,"cat":0},{"node":9,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]}]`)
	if w.Code != 422 {
		t.Fatalf("missing cat: %d", w.Code)
	}
	mustDecode(t, w.Body.Bytes(), &doc)
	if doc.Ingested != 0 || doc.Total != 2 || doc.Index != 1 {
		t.Fatalf("missing-cat body = %+v, want ingested=0 total=2 index=1", doc)
	}
	if acc.Draws() != 4 {
		t.Fatalf("draws = %d, whole-body rejection must apply nothing", acc.Draws())
	}
}

// TestEpochServer runs the HTTP surface over a star job, which the
// registry builds epoch-merged: /ingest accumulates batches in
// writer-private epochs, flushes them before responding, and the estimate
// matches the batch pipeline.
func TestEpochServer(t *testing.T) {
	g := mustDemoGraph(t)
	N := float64(g.N())
	reg, err := job.NewRegistry("", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := reg.Create(job.Spec{Name: job.DefaultName, K: g.NumCategories(), Names: g.CategoryNames(), Star: true, N: N})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := def.Acc().(*stream.EpochAccumulator); !ok {
		t.Fatalf("star job has %T, want *stream.EpochAccumulator", def.Acc())
	}
	srv := newServerWithJobs(reg, def)
	s, err := sample.NewRW(200).Sample(randx.New(61), g, 3000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	var recs []sample.NodeObservation
	for i, v := range s.Nodes {
		recs = append(recs, so.Observe(v, s.Weight(i)))
		if len(recs) == 256 || i == len(s.Nodes)-1 {
			body, err := json.Marshal(recs)
			if err != nil {
				t.Fatal(err)
			}
			if w := post(t, srv, "/ingest", string(body)); w.Code != 200 {
				t.Fatalf("epoch ingest: %d %s", w.Code, w.Body)
			}
			recs = recs[:0]
		}
	}
	var doc estimateDoc
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &doc)
	if doc.Draws != s.Len() {
		t.Fatalf("draws = %d, want %d", doc.Draws, s.Len())
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Estimate(o, core.Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range doc.Sizes {
		if d := math.Abs(se.Size - want.Sizes[se.Cat]); d > 1e-9 {
			t.Fatalf("epoch size[%d] = %g, want %g", se.Cat, se.Size, want.Sizes[se.Cat])
		}
	}
	var health map[string]any
	mustDecode(t, get(t, srv, "/healthz").Body.Bytes(), &health)
	if health["accumulator"] != "epoch-merged" {
		t.Fatalf("healthz accumulator = %v, want epoch-merged", health["accumulator"])
	}
}

// TestEstimateBeforeIngest checks the empty-accumulator path.
func TestEstimateBeforeIngest(t *testing.T) {
	srv, _ := testServer(t, 3, true, 0)
	if w := get(t, srv, "/estimate"); w.Code != 503 {
		t.Fatalf("empty estimate: %d", w.Code)
	}
	if w := get(t, srv, "/categorygraph.tsv"); w.Code != 503 {
		t.Fatalf("empty tsv: %d", w.Code)
	}
	if w := get(t, srv, "/healthz"); w.Code != 200 {
		t.Fatalf("healthz should not need data: %d", w.Code)
	}
}

// TestHealthz pins the liveness document's shape: configuration and stream
// position, process pulse, build info, and the cumulative ingest/crawl
// counter groups.
func TestHealthz(t *testing.T) {
	srv, _ := testServer(t, 4, false, 0)
	post(t, srv, "/ingest", `{"node":1,"cat":0}`)
	w := get(t, srv, "/healthz")
	if w.Code != 200 {
		t.Fatalf("healthz: %d", w.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" || doc["scenario"] != "induced" || doc["draws"] != float64(1) {
		t.Fatalf("healthz doc = %v", doc)
	}
	for _, key := range []string{"k", "accumulator", "bootstrap_b", "distinct", "uptime_s", "go_version", "goroutines", "build", "ingest", "crawl"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("healthz doc missing %q: %v", key, doc)
		}
	}
	if gv, _ := doc["go_version"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %v", doc["go_version"])
	}
	if n, _ := doc["goroutines"].(float64); n < 1 {
		t.Errorf("goroutines = %v", doc["goroutines"])
	}
	build, ok := doc["build"].(map[string]any)
	if !ok {
		t.Fatalf("build = %T %v, want object", doc["build"], doc["build"])
	}
	for _, key := range []string{"path", "version"} {
		if _, ok := build[key]; !ok {
			t.Errorf("build info missing %q: %v", key, build)
		}
	}
	ingest, ok := doc["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("ingest = %T, want object", doc["ingest"])
	}
	// The counters are process-wide (other tests ingest too), so assert
	// at-least rather than equality.
	if n, _ := ingest["records"].(float64); n < 1 {
		t.Errorf("ingest.records = %v, want ≥ 1", ingest["records"])
	}
	if _, ok := ingest["rejected"]; !ok {
		t.Errorf("ingest doc missing rejected: %v", ingest)
	}
	crawlDoc, ok := doc["crawl"].(map[string]any)
	if !ok {
		t.Fatalf("crawl = %T, want object", doc["crawl"])
	}
	for _, key := range []string{"draws", "checkpoints"} {
		if _, ok := crawlDoc[key]; !ok {
			t.Errorf("crawl doc missing %q: %v", key, crawlDoc)
		}
	}
}

// TestConcurrentHTTPTraffic is the serving-layer race test: concurrent
// ingest POSTs against concurrent estimate/TSV/healthz GETs, then a final
// consistency check. Run under -race.
func TestConcurrentHTTPTraffic(t *testing.T) {
	g := mustDemoGraph(t)
	N := float64(g.N())
	s, err := sample.UIS{}.Sample(randx.New(33), g, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// Self-contained star records: safe to deliver in any order.
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		so, err := sample.NewStreamObserver(g, true)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = so.Observe(v, s.Weight(i))
	}
	srv, acc := testServer(t, g.NumCategories(), true, N)
	const writers = 6
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			var chunk []sample.NodeObservation
			for i := wkr; i < len(recs); i += writers {
				chunk = append(chunk, recs[i])
				if len(chunk) == 64 {
					flushChunk(t, srv, chunk)
					chunk = chunk[:0]
				}
			}
			flushChunk(t, srv, chunk)
		}(wkr)
	}
	stop := make(chan struct{})
	var readWG sync.WaitGroup
	for rdr := 0; rdr < 3; rdr++ {
		readWG.Add(1)
		go func(path string) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", path, nil)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != 200 && w.Code != 503 {
					t.Errorf("GET %s: %d", path, w.Code)
					return
				}
			}
		}([]string{"/estimate", "/categorygraph.tsv", "/healthz"}[rdr])
	}
	wg.Wait()
	close(stop)
	readWG.Wait()
	if t.Failed() {
		return
	}
	if acc.Draws() != s.Len() {
		t.Fatalf("draws = %d, want %d", acc.Draws(), s.Len())
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Estimate(o, core.Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for c := range want.Sizes {
		if d := math.Abs(snap.Result.Sizes[c] - want.Sizes[c]); d > 1e-9 {
			t.Fatalf("size[%d] = %g, want %g", c, snap.Result.Sizes[c], want.Sizes[c])
		}
	}
}

func flushChunk(t *testing.T, srv http.Handler, chunk []sample.NodeObservation) {
	t.Helper()
	if len(chunk) == 0 {
		return
	}
	body, err := json.Marshal(chunk)
	if err != nil {
		t.Error(err)
		return
	}
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Errorf("ingest chunk: %d %s", w.Code, w.Body)
	}
}

func mustDemoGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Social(randx.New(44), gen.SocialConfig{
		N: 500, MeanDeg: 10, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 7, CommZipf: 0.8, Mixing: 0.3, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestParseSizeMethod covers the flag parser.
func TestParseSizeMethod(t *testing.T) {
	for in, want := range map[string]core.SizeMethod{
		"auto": core.SizeMethodAuto, "induced": core.SizeMethodInduced,
		"star": core.SizeMethodStar, "star-pooled": core.SizeMethodStarPooled,
	} {
		got, err := job.ParseSizeMethod(in)
		if err != nil || got != want {
			t.Fatalf("job.ParseSizeMethod(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := job.ParseSizeMethod("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

// TestSnapshotCaching checks that repeated GETs without new draws reuse one
// snapshot (same seq) and that new draws refresh it.
func TestSnapshotCaching(t *testing.T) {
	srv, _ := testServer(t, 2, true, 0)
	post(t, srv, "/ingest", `{"node":1,"cat":0,"deg":1,"nbr_cat":[1],"nbr_cnt":[1]}`)
	var first, second, third estimateDoc
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &first)
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &second)
	if first.Seq != second.Seq {
		t.Fatalf("idle GETs advanced the snapshot: %d → %d", first.Seq, second.Seq)
	}
	post(t, srv, "/ingest", `{"node":2,"cat":1,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]}`)
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &third)
	if third.Seq == second.Seq || third.Draws != 2 {
		t.Fatalf("new draws did not refresh snapshot: %+v", third)
	}
	if third.Convergence.DrawsSince != 1 {
		t.Fatalf("DrawsSince = %d, want 1", third.Convergence.DrawsSince)
	}
}

func mustDecode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
}

// TestEstimateCIEndpoint exercises the bootstrap wire format: a daemon with
// -bootstrap serves intervals (default level and ?ci=), the intervals match
// the accumulator's own bootstrap snapshot, and ?ci= without -bootstrap is
// rejected with a 400.
func TestEstimateCIEndpoint(t *testing.T) {
	g, err := gen.Social(randx.New(31), gen.SocialConfig{
		N: 400, MeanDeg: 10, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 6, CommZipf: 0.8, Mixing: 0.3, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	N := float64(g.N())
	s, err := sample.UIS{}.Sample(randx.New(32), g, 2000)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := stream.NewAccumulator(stream.Config{
		K: g.NumCategories(), Star: true, N: N,
		Replicates: uncert.Config{B: 40, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(acc, g.CategoryNames())
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	var recs []sample.NodeObservation
	for i, v := range s.Nodes {
		recs = append(recs, so.Observe(v, s.Weight(i)))
	}
	body, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if w := post(t, srv, "/ingest", string(body)); w.Code != 200 {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}

	// Default level is 0.95 when the bootstrap is on.
	w := get(t, srv, "/estimate")
	if w.Code != 200 {
		t.Fatalf("estimate: %d %s", w.Code, w.Body)
	}
	var doc estimateDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.BootstrapB != 40 || doc.CILevel == nil || *doc.CILevel != 0.95 {
		t.Fatalf("bootstrap header: B=%d level=%v", doc.BootstrapB, doc.CILevel)
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range doc.Sizes {
		if se.CI == nil {
			t.Fatalf("size entry %d has no CI", se.Cat)
		}
		want := snap.Boot.SizeCI(int(se.Cat), 0.95)
		if math.Abs(se.CI[0]-want.Lo) > 1e-9 || math.Abs(se.CI[1]-want.Hi) > 1e-9 {
			t.Fatalf("size CI[%d] = %v, want %+v", se.Cat, *se.CI, want)
		}
		if !(se.CI[0] <= se.Size && se.Size <= se.CI[1]) {
			t.Fatalf("size CI %v does not bracket the estimate %v", *se.CI, se.Size)
		}
	}
	ciCount := 0
	for _, we := range doc.Weights {
		if we.CI != nil {
			ciCount++
			if !(we.CI[0] <= we.CI[1]) {
				t.Fatalf("weight CI %v inverted", *we.CI)
			}
		}
	}
	if ciCount == 0 {
		t.Fatal("no weight entry carries a CI")
	}

	// A custom level narrows/widens the intervals accordingly.
	w = get(t, srv, "/estimate?ci=0.5")
	if w.Code != 200 {
		t.Fatalf("estimate?ci=0.5: %d %s", w.Code, w.Body)
	}
	var narrow estimateDoc
	if err := json.Unmarshal(w.Body.Bytes(), &narrow); err != nil {
		t.Fatal(err)
	}
	if *narrow.CILevel != 0.5 {
		t.Fatalf("ci_level = %v", *narrow.CILevel)
	}
	for i := range narrow.Sizes {
		if narrow.Sizes[i].CI == nil || doc.Sizes[i].CI == nil {
			continue
		}
		w95 := doc.Sizes[i].CI[1] - doc.Sizes[i].CI[0]
		w50 := narrow.Sizes[i].CI[1] - narrow.Sizes[i].CI[0]
		if w50 > w95+1e-12 {
			t.Fatalf("50%% CI wider than 95%% CI for category %d: %v vs %v", i, w50, w95)
		}
	}

	// Bad levels are rejected.
	for _, q := range []string{"0", "1", "1.5", "abc", "-0.3"} {
		if w := get(t, srv, "/estimate?ci="+q); w.Code != http.StatusBadRequest {
			t.Fatalf("ci=%s: code %d, want 400", q, w.Code)
		}
	}

	// healthz reports the replicate count.
	w = get(t, srv, "/healthz")
	var hz map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["bootstrap_b"].(float64) != 40 {
		t.Fatalf("healthz bootstrap_b = %v", hz["bootstrap_b"])
	}

	// Without -bootstrap, ?ci= is a 400 and plain /estimate has no CI keys.
	plain, _ := testServer(t, 3, true, 0)
	post(t, plain, "/ingest", `{"node":1,"cat":0,"deg":1,"nbr_cat":[1],"nbr_cnt":[1]}`)
	if w := get(t, plain, "/estimate?ci=0.95"); w.Code != http.StatusBadRequest {
		t.Fatalf("ci without -bootstrap: code %d, want 400", w.Code)
	}
	w = get(t, plain, "/estimate")
	if w.Code != 200 || bytes.Contains(w.Body.Bytes(), []byte(`"ci_level"`)) {
		t.Fatalf("plain estimate leaks CI fields: %d %s", w.Code, w.Body)
	}
}

// TestEpochServerCI checks that the CI path works identically behind the
// epoch-merged accumulator.
func TestEpochServerCI(t *testing.T) {
	acc, err := stream.NewEpochAccumulator(stream.Config{
		K: 2, Star: true, N: 50, Replicates: uncert.Config{B: 16, Seed: 2},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(acc, nil)
	var recs []sample.NodeObservation
	for v := int32(0); v < 30; v++ {
		recs = append(recs, sample.NodeObservation{
			Node: v, Cat: v % 2, Deg: 2, NbrCat: []int32{(v + 1) % 2}, NbrCnt: []float64{2},
		})
	}
	body, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if w := post(t, srv, "/ingest", string(body)); w.Code != 200 {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	w := get(t, srv, "/estimate?ci=0.9")
	if w.Code != 200 {
		t.Fatalf("estimate: %d %s", w.Code, w.Body)
	}
	var doc estimateDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.BootstrapB != 16 || doc.CILevel == nil || *doc.CILevel != 0.9 {
		t.Fatalf("epoch CI header: %d %v", doc.BootstrapB, doc.CILevel)
	}
	for _, se := range doc.Sizes {
		if se.CI == nil {
			t.Fatalf("epoch size entry %d has no CI", se.Cat)
		}
	}
}

// TestSnapshotFreshAfterAckedIngest is the stale-snapshot regression test
// (run under -race): the snapshot cache used to be keyed on acc.Draws(),
// which for the retired sharded accumulator summed per-shard counters one
// lock at a time — under concurrent ingest the torn sum could equal the
// cached count and a stale snapshot would be served as fresh. The fixed
// cache keys on the monotone ingest generation, which the epoch-merged
// accumulator advances at flush (its Ingest flushes before returning, so
// the ack implies visibility), giving the externally visible guarantee
// this test hammers: every /estimate whose request starts after an
// /ingest response was received reflects at least those acknowledged
// draws.
func TestSnapshotFreshAfterAckedIngest(t *testing.T) {
	acc, err := stream.NewEpochAccumulator(stream.Config{K: 2, Star: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(acc, nil)
	var acked atomic.Int64
	const writers = 6
	const perWriter = 120
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int32(wr*perWriter + i)
				body := fmt.Sprintf(`{"node":%d,"cat":%d,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]}`, v, v%2)
				w := post(t, srv, "/ingest", body)
				if w.Code != 200 {
					t.Errorf("ingest: %d %s", w.Code, w.Body)
					return
				}
				acked.Add(1)
			}
		}(wr)
	}
	var readers sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Read the acknowledged floor BEFORE issuing the GET: any
				// estimate served afterwards must cover at least this many
				// draws.
				floor := acked.Load()
				if floor == 0 {
					continue
				}
				w := get(t, srv, "/estimate")
				if w.Code != 200 {
					t.Errorf("estimate: %d %s", w.Code, w.Body)
					return
				}
				var doc estimateDoc
				if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
					t.Error(err)
					return
				}
				if int64(doc.Draws) < floor {
					t.Errorf("stale snapshot served: estimate covers %d draws, %d were already acknowledged", doc.Draws, floor)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	// And at quiescence the cache must refresh to the final count once.
	var doc estimateDoc
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &doc)
	if doc.Draws != writers*perWriter {
		t.Fatalf("final estimate covers %d draws, want %d", doc.Draws, writers*perWriter)
	}
	// Idle GETs keep serving the same snapshot (the cache still caches).
	var again estimateDoc
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &again)
	if again.Seq != doc.Seq {
		t.Fatalf("idle GET advanced the snapshot: %d → %d", doc.Seq, again.Seq)
	}
}

// TestCrawlEndpoints drives the crawl-mode HTTP surface end to end: a job
// started via POST /crawl runs against the server's graph, streams into the
// server's accumulator, reports live CI widths on GET /crawl/status, stops
// on its size target, and rejects a second concurrent start with 409.
// gatedSource is a graph.Source whose Neighbors blocks until gate is
// closed: a crawl over it cannot step, let alone finish, while the test
// holds the gate.
type gatedSource struct {
	graph.Source
	gate chan struct{}
}

func (s gatedSource) Neighbors(v int32) []int32 {
	<-s.gate
	return s.Source.Neighbors(v)
}

func TestCrawlEndpoints(t *testing.T) {
	g := mustDemoGraph(t)
	N := float64(g.N())
	acc, err := stream.NewEpochAccumulator(stream.Config{
		K: g.NumCategories(), Star: true, N: N,
		Replicates: uncert.Config{B: 60, Seed: 3},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(acc, g.CategoryNames())
	// The gate holds every walker at its first step until the test has
	// asserted the 409 below, so the first job cannot finish meanwhile.
	gate := make(chan struct{})
	srv.crawlSource = gatedSource{Source: g, gate: gate}
	srv.crawlDefaults = crawl.Config{
		Walkers: 2, Sampler: crawl.SamplerRW, Star: true, N: N,
		Bootstrap: uncert.Config{B: 60, Seed: 3},
		MaxDraws:  40000, CheckEvery: 1000, BurnIn: 100, Seed: 3,
	}

	// No job yet.
	var st crawlStatusDoc
	mustDecode(t, get(t, srv, "/crawl/status").Body.Bytes(), &st)
	if st.State != "none" {
		t.Fatalf("state = %q before any job", st.State)
	}

	// Start a job with a reachable target on the largest category.
	big := 0
	for c := 1; c < g.NumCategories(); c++ {
		if g.CategorySize(int32(c)) > g.CategorySize(int32(big)) {
			big = c
		}
	}
	body := fmt.Sprintf(`{"size_target":60,"size_cats":[%d],"walkers":3}`, big)
	w := post(t, srv, "/crawl", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /crawl: %d %s", w.Code, w.Body)
	}
	// A second start while the job runs is a 409.
	mustDecode(t, get(t, srv, "/crawl/status").Body.Bytes(), &st)
	w = post(t, srv, "/crawl", "{}")
	close(gate)
	if st.State != "running" {
		t.Fatalf("state = %q while the gate holds the walkers", st.State)
	}
	if w.Code != http.StatusConflict {
		t.Fatalf("concurrent POST /crawl: %d, want 409", w.Code)
	}
	// Wait for completion via the job handle (the HTTP surface is polled).
	job := srv.def.Crawl()
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != crawl.ReasonTarget {
		t.Fatalf("stopped = %q after %d draws, want target", res.Stopped, res.Draws)
	}
	mustDecode(t, get(t, srv, "/crawl/status").Body.Bytes(), &st)
	if st.State != "done" || st.Result == nil || st.Result.Stopped != "target" {
		t.Fatalf("final status = %+v", st)
	}
	if st.Checkpoint == nil || len(st.Checkpoint.SizeHW) != g.NumCategories() {
		t.Fatalf("final checkpoint = %+v", st.Checkpoint)
	}
	if hw := st.Checkpoint.SizeHW[big]; hw == nil || *hw > 60 {
		t.Fatalf("size_hw[%d] = %v, want ≤ 60", big, hw)
	}
	if len(st.Walkers) != 3 {
		t.Fatalf("status reports %d walkers, want 3", len(st.Walkers))
	}
	// The job's draws landed in the server's accumulator, and /estimate
	// serves them.
	if acc.Draws() != res.Draws {
		t.Fatalf("accumulator has %d draws, job ingested %d", acc.Draws(), res.Draws)
	}
	var doc estimateDoc
	mustDecode(t, get(t, srv, "/estimate").Body.Bytes(), &doc)
	if doc.Draws != res.Draws {
		t.Fatalf("estimate covers %d draws, want %d", doc.Draws, res.Draws)
	}
	// A finished job may be superseded; the new job pools into the same
	// accumulator.
	if w := post(t, srv, "/crawl", `{"max_draws":500,"size_target":0,"check_every":250}`); w.Code != http.StatusAccepted {
		t.Fatalf("restart: %d %s", w.Code, w.Body)
	}
	job2 := srv.def.Crawl()
	res2, err := job2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stopped != crawl.ReasonBudget || res2.Draws != 500 {
		t.Fatalf("second job: (%q, %d), want (budget, 500)", res2.Stopped, res2.Draws)
	}
	if acc.Draws() != res.Draws+500 {
		t.Fatalf("accumulator has %d draws, want pooled %d", acc.Draws(), res.Draws+500)
	}

	// Without a crawl backend, POST /crawl is a 404.
	plain, _ := testServer(t, 2, true, 0)
	if w := post(t, plain, "/crawl", "{}"); w.Code != http.StatusNotFound {
		t.Fatalf("POST /crawl without backend: %d, want 404", w.Code)
	}
	mustDecode(t, get(t, plain, "/crawl/status").Body.Bytes(), &st)
	if st.State != "none" {
		t.Fatalf("plain daemon crawl state = %q", st.State)
	}
	// A bad override is a 422 with an explanatory error.
	srv2 := newServer(acc, g.CategoryNames())
	srv2.crawlSource = g
	srv2.crawlDefaults = crawl.Config{Star: true, MaxDraws: 100}
	if w := post(t, srv2, "/crawl", `{"engine":"magic"}`); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad engine: %d %s", w.Code, w.Body)
	}
	if w := post(t, srv2, "/crawl", `not json`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", w.Code)
	}
}

// TestParseCats covers the -crawl-cats parser.
func TestParseCats(t *testing.T) {
	if cats, err := parseCats(""); err != nil || cats != nil {
		t.Fatalf("empty: %v %v", cats, err)
	}
	cats, err := parseCats("0, 3,7")
	if err != nil || len(cats) != 3 || cats[1] != 3 {
		t.Fatalf("parseCats: %v %v", cats, err)
	}
	if _, err := parseCats("1,x"); err == nil {
		t.Fatal("want error on non-numeric entry")
	}
}

// TestCrawlPackedRateLimited drives the out-of-core API-crawl wiring end to
// end: the demo graph is packed to disk, reopened through cli.crawlBackend
// with a query-cost model, crawled over HTTP, and the status/result docs
// must report the queries spent alongside the draws.
func TestCrawlPackedRateLimited(t *testing.T) {
	g := mustDemoGraph(t)
	packPath := filepath.Join(t.TempDir(), "demo.pack")
	f, err := os.Create(packPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WritePack(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c := &cli{graphFile: packPath, qps: 0, queryCost: time.Microsecond}
	src, names, err := c.crawlBackend()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != g.NumCategories() {
		t.Fatalf("backend carries %d names, want %d", len(names), g.NumCategories())
	}
	if _, ok := graph.QueriesOf(src); !ok {
		t.Fatal("crawl backend is not metered despite -query-cost")
	}

	N := float64(g.N())
	acc, err := stream.NewEpochAccumulator(stream.Config{K: g.NumCategories(), Star: true, N: N}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(acc, names)
	srv.crawlSource = src
	srv.crawlDefaults = crawl.Config{
		Walkers: 2, Sampler: crawl.SamplerRW, Star: true, N: N,
		MaxDraws: 2000, CheckEvery: 500, BurnIn: 50, Seed: 5,
	}
	if w := post(t, srv, "/crawl", "{}"); w.Code != http.StatusAccepted {
		t.Fatalf("POST /crawl: %d %s", w.Code, w.Body)
	}
	job := srv.def.Crawl()
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	var st crawlStatusDoc
	mustDecode(t, get(t, srv, "/crawl/status").Body.Bytes(), &st)
	if st.State != "done" {
		t.Fatalf("state = %q, want done", st.State)
	}
	if st.Queries == nil || *st.Queries == 0 {
		t.Fatalf("metered crawl reported no queries: %+v", st)
	}
	// The wrapper's node cache makes re-fetches free, so on this small
	// graph queries ≪ draws; they still must be positive and consistent.
	if st.Result == nil || st.Result.Queries == nil || *st.Result.Queries != *st.Queries {
		t.Fatalf("result queries = %v, status queries = %v; want equal and present", st.Result.Queries, st.Queries)
	}
}

// TestCrawlBackendErrors pins the -graph-file failure modes: a missing
// file, and a pack without categories.
func TestCrawlBackendErrors(t *testing.T) {
	c := &cli{graphFile: filepath.Join(t.TempDir(), "nope.pack")}
	if _, _, err := c.crawlBackend(); err == nil {
		t.Fatal("crawlBackend accepted a missing pack file")
	}

	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "uncat.pack")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WritePack(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c = &cli{graphFile: path}
	if _, _, err := c.crawlBackend(); err == nil || !strings.Contains(err.Error(), "no categories") {
		t.Fatalf("uncategorized pack: err = %v, want 'no categories'", err)
	}
}

// scrapeMetrics GETs /metrics off the server and parses the Prometheus text
// exposition into sample-name → value (labels included in the name), failing
// on any unparseable line.
func scrapeMetrics(t *testing.T, srv http.Handler) map[string]float64 {
	t.Helper()
	w := get(t, srv, "/metrics")
	if w.Code != 200 {
		t.Fatalf("GET /metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type = %q", ct)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestMetricsEndToEndPackedCrawl is the observability integration test: an
// adaptive crawl over a packed, metered backend must visibly move the
// process metrics served at GET /metrics — block-cache hits and misses,
// API queries spent, per-walker draw gauges — and the size-CI half-width
// gauge must shrink as a second, larger crawl accumulates more draws into
// the same accumulator.
func TestMetricsEndToEndPackedCrawl(t *testing.T) {
	g := mustDemoGraph(t)
	packPath := filepath.Join(t.TempDir(), "obs.pack")
	f, err := os.Create(packPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WritePack(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c := &cli{graphFile: packPath, queryCost: time.Microsecond}
	src, names, err := c.crawlBackend()
	if err != nil {
		t.Fatal(err)
	}

	N := float64(g.N())
	acc, err := stream.NewEpochAccumulator(stream.Config{
		K: g.NumCategories(), Star: true, N: N,
		Replicates: uncert.Config{B: 50, Seed: 7},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(acc, names)
	srv.crawlSource = src
	srv.crawlDefaults = crawl.Config{
		Walkers: 2, Sampler: crawl.SamplerRW, Star: true, N: N,
		Bootstrap: uncert.Config{B: 50, Seed: 7},
		MaxDraws:  500, CheckEvery: 500, BurnIn: 50, Seed: 5,
	}

	runJob := func(body string) {
		t.Helper()
		if w := post(t, srv, "/crawl", body); w.Code != http.StatusAccepted {
			t.Fatalf("POST /crawl: %d %s", w.Code, w.Body)
		}
		job := srv.def.Crawl()
		if _, err := job.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// Job 1: one checkpoint at 500 draws — the baseline CI half-width.
	runJob("{}")
	first := scrapeMetrics(t, srv)
	hw1, ok := first[`crawl_size_ci_halfwidth{cat="0"}`]
	if !ok || math.IsNaN(hw1) || hw1 <= 0 {
		t.Fatalf("size-CI half-width gauge after job 1 = %g (present %v), want finite > 0", hw1, ok)
	}
	for _, name := range []string{
		"graph_pack_cache_hits_total",
		"graph_pack_cache_misses_total",
		"graph_pack_read_bytes_total",
		"graph_api_queries_total",
		"stream_ingest_records_total",
		"crawl_draws_total",
		"crawl_checkpoints_total",
		`crawl_walker_draws{walker="0"}`,
		`crawl_walker_draws{walker="1"}`,
	} {
		if v := first[name]; !(v > 0) {
			t.Errorf("after job 1: %s = %g, want > 0", name, v)
		}
	}
	// The two walkers split the 500-draw round evenly.
	if d0, d1 := first[`crawl_walker_draws{walker="0"}`], first[`crawl_walker_draws{walker="1"}`]; d0 != 250 || d1 != 250 {
		t.Errorf("walker draw gauges = %g, %g, want 250 each", d0, d1)
	}
	if v := first[`http_requests_total{code="202",endpoint="/crawl"}`] + first[`http_requests_total{endpoint="/crawl",code="202"}`]; !(v > 0) {
		t.Errorf("instrumented HTTP surface did not count POST /crawl: %v", first)
	}

	// Job 2: 16× the draws into the same accumulator — the half-width
	// gauge must shrink (1/√draws scaling leaves a wide margin).
	runJob(`{"max_draws":8000,"check_every":2000,"seed":6}`)
	second := scrapeMetrics(t, srv)
	hw2 := second[`crawl_size_ci_halfwidth{cat="0"}`]
	if math.IsNaN(hw2) || hw2 <= 0 {
		t.Fatalf("size-CI half-width gauge after job 2 = %g, want finite > 0", hw2)
	}
	if hw2 >= hw1 {
		t.Errorf("size-CI half-width did not shrink: %g (500 draws) -> %g (8500 draws)", hw1, hw2)
	}
	if second["crawl_draws_total"] < first["crawl_draws_total"]+8000 {
		t.Errorf("crawl_draws_total = %g after job 2, want ≥ %g", second["crawl_draws_total"], first["crawl_draws_total"]+8000)
	}
	if second["graph_api_queries_total"] <= first["graph_api_queries_total"] {
		t.Errorf("metered queries did not advance: %g -> %g", first["graph_api_queries_total"], second["graph_api_queries_total"])
	}
	if second["graph_pack_cache_hits_total"] <= first["graph_pack_cache_hits_total"] {
		t.Errorf("pack cache hits did not advance: %g -> %g", first["graph_pack_cache_hits_total"], second["graph_pack_cache_hits_total"])
	}
}
