package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/catgraph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

// readCacheRecords draws n star records of the merge test graph.
func readCacheRecords(t *testing.T, n int) (int, []sample.NodeObservation) {
	t.Helper()
	g := mergeTestGraph(t)
	s, err := sample.NewRW(100).Sample(randx.New(5), g, n)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		recs[i] = so.Observe(v, s.Weight(i))
	}
	return g.NumCategories(), recs
}

// recordJSON renders rec as a POST /ingest body.
func recordJSON(t *testing.T, rec sample.NodeObservation) string {
	t.Helper()
	b, err := json.Marshal(wireRecord{Node: rec.Node, Weight: rec.Weight, Cat: &rec.Cat,
		Deg: rec.Deg, NbrCat: rec.NbrCat, NbrCnt: rec.NbrCnt})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// getSums GETs /sums, gzip-encoded when gz is set, and returns the
// TOPOSUM1 bytes and the body as sent.
func getSums(t *testing.T, srv http.Handler, gz bool) (raw, sent []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", "/sums", nil)
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /sums: %d %s", w.Code, w.Body)
	}
	sent = w.Body.Bytes()
	if !gz {
		return sent, sent
	}
	if enc := w.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("content encoding %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(bytes.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	raw, err = io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw, sent
}

// readCount returns the read-cache counter of endpoint and result.
func readCount(endpoint, result string) int64 {
	return mReadCache.With(endpoint, result).Value()
}

// TestReadCacheFreshAfterIngest reads /estimate, /sums (raw and gzip) and
// /categorygraph.tsv, reads them again at the same generation, publishes
// one draw and reads once more, over each of the three Ingesters: the
// repeat reads are cache hits with the same bytes, and the read after the
// acknowledged write sees one more draw — no stale body survives a
// generation.
func TestReadCacheFreshAfterIngest(t *testing.T) {
	k, recs := readCacheRecords(t, 301)
	cfg := stream.Config{K: k, Star: true, Replicates: uncert.Config{B: 10, Seed: 4}}
	head, last := recs[:300], recs[300]

	single, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := stream.NewEpochAccumulator(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := stream.NewPool(stream.Config{K: k, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	// fill loads head into an Ingester before any read; publish adds one
	// acknowledged draw (over HTTP for the live engines, by a rebuild for
	// the pool).
	batch := func(acc stream.Ingester) func() {
		return func() {
			if _, err := acc.IngestBatch(head); err != nil {
				t.Fatal(err)
			}
		}
	}
	postLast := func(srv http.Handler) {
		if w := post(t, srv, "/ingest", recordJSON(t, last)); w.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", w.Code, w.Body)
		}
	}
	rebuild := func() {
		st, err := worker.Export()
		if err == nil {
			err = pool.Rebuild([]*stream.State{st})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		acc     stream.Ingester
		fill    func()
		publish func(srv http.Handler)
	}{
		{"single-lock", single, batch(single), postLast},
		{"epoch", epoch, batch(epoch), postLast},
		{"pool", pool, func() { batch(worker)(); rebuild() }, func(http.Handler) {
			if err := worker.Ingest(last); err != nil {
				t.Fatal(err)
			}
			rebuild()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newServer(tc.acc, nil)
			tc.fill()
			const estPath = "/estimate?ci=0.9"
			est := get(t, srv, estPath).Body.Bytes()
			raw, _ := getSums(t, srv, false)
			_, gz := getSums(t, srv, true)
			tsv := get(t, srv, "/categorygraph.tsv").Body.String()

			hits := map[string]int64{"estimate": readCount("estimate", "hit"), "sums": readCount("sums", "hit"), "tsv": readCount("tsv", "hit")}
			if again := get(t, srv, estPath).Body.Bytes(); !bytes.Equal(again, est) {
				t.Fatal("a repeat /estimate at one generation changed the body")
			}
			if again, _ := getSums(t, srv, false); !bytes.Equal(again, raw) {
				t.Fatal("a repeat /sums at one generation changed the body")
			}
			if inflated, again := getSums(t, srv, true); !bytes.Equal(again, gz) || !bytes.Equal(inflated, raw) {
				t.Fatal("a repeat gzip /sums changed the body, or it does not inflate to the raw one")
			}
			if again := get(t, srv, "/categorygraph.tsv").Body.String(); again != tsv {
				t.Fatal("a repeat /categorygraph.tsv changed the body")
			}
			for ep, want := range map[string]int64{"estimate": 1, "sums": 2, "tsv": 1} {
				if got := readCount(ep, "hit") - hits[ep]; got != want {
					t.Errorf("%s: %d cache hits on repeat reads, want %d", ep, got, want)
				}
			}

			var before, after estimateDoc
			mustDecode(t, est, &before)
			misses := readCount("estimate", "miss")
			tc.publish(srv)
			mustDecode(t, get(t, srv, estPath).Body.Bytes(), &after)
			if after.Draws != before.Draws+1 || after.Seq != before.Seq+1 || after.Convergence.DrawsSince != 1 {
				t.Fatalf("after one ingest: draws %d seq %d draws_since %d, want %d, %d, 1",
					after.Draws, after.Seq, after.Convergence.DrawsSince, before.Draws+1, before.Seq+1)
			}
			if got := readCount("estimate", "miss") - misses; got != 1 {
				t.Errorf("%d estimate misses after one ingest, want 1", got)
			}
			for _, gzOn := range []bool{false, true} {
				body, _ := getSums(t, srv, gzOn)
				st, err := wire.Decode(body)
				if err != nil {
					t.Fatal(err)
				}
				if int(st.Sums.Draws) != before.Draws+1 {
					t.Fatalf("gzip=%v: /sums after one ingest has %v draws, want %d", gzOn, st.Sums.Draws, before.Draws+1)
				}
			}
		})
	}
}

// TestReadCacheBodiesMatchFreshRender checks that the cached /estimate and
// /sums bodies are the bytes an uncached render of the same generation
// produces: the estimate rendered from the published snapshot with a fresh
// category graph, and the sums encoded from a fresh export.
func TestReadCacheBodiesMatchFreshRender(t *testing.T) {
	k, recs := readCacheRecords(t, 400)
	acc, err := stream.NewEpochAccumulator(stream.Config{K: k, Star: true, Replicates: uncert.Config{B: 12, Seed: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	srv := newServer(acc, nil)
	names := srv.def.Names()
	for _, tc := range []struct {
		path  string
		level float64
	}{{"/estimate", 0.95}, {"/estimate?ci=0.8", 0.8}} {
		get(t, srv, tc.path)
		cached := get(t, srv, tc.path).Body.Bytes()
		snap, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		cg, err := catgraph.FromEstimate(snap.Result, names)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := renderEstimate(snap, cg, names, tc.level, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cached, fresh) {
			t.Fatalf("%s: cached body differs from a fresh render:\n%s\n%s", tc.path, cached, fresh)
		}
	}
	getSums(t, srv, false)
	cached, _ := getSums(t, srv, false)
	inflated, _ := getSums(t, srv, true)
	st, err := acc.Export()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := wire.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, fresh) || !bytes.Equal(inflated, fresh) {
		t.Fatal("cached /sums bodies differ from a fresh encode of the same generation")
	}
}
