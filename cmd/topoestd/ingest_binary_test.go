package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/job"
	"repro/internal/sample"
	"repro/internal/wire"
)

// postBin posts a TOPOREC1 binary batch to an ingest route.
func postBin(t *testing.T, srv *server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.RecordsContentType)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// obsRecs materializes records [lo, hi) of the shared deterministic stream.
func obsRecs(lo, hi int) []sample.NodeObservation {
	recs := make([]sample.NodeObservation, 0, hi-lo)
	for i := lo; i < hi; i++ {
		recs = append(recs, httpObs(i))
	}
	return recs
}

// parityServer builds a full jobs-enabled server whose default job carries
// bootstrap replicates, so /estimate?ci= exercises the replicate state too.
// The scenario picks the engine: epoch-merged for star, single-lock for
// induced.
func parityServer(t *testing.T, star bool) *server {
	t.Helper()
	reg, err := job.NewRegistry("", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := reg.Create(job.Spec{
		Name: job.DefaultName, K: 4, Star: star, N: 800,
		Bootstrap: 16, BootstrapSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newServerWithJobs(reg, def)
}

// inducedRecs is the induced counterpart of obsRecs: the same nodes,
// categories and weights, where each node's first draw reports the edge to
// the node before it and re-draws carry no peers.
func inducedRecs(lo, hi int) []sample.NodeObservation {
	recs := make([]sample.NodeObservation, 0, hi-lo)
	for i := lo; i < hi; i++ {
		node := int32(i % 31)
		rec := sample.NodeObservation{Node: node, Cat: node % 4, Weight: 1 + float64(node%6)/5}
		if i < 31 && node > 0 {
			rec.Peers = []int32{node - 1}
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestBinaryIngestParity drives the same record stream through JSON and
// TOPOREC1 ingest — on both the un-prefixed default routes and a named
// /jobs/{name}/ tenant, under both scenarios and so over both accumulator
// designs — and requires the served output to be bit-identical: /estimate
// with bootstrap confidence intervals, and the /sums wire export. The
// encodings must be two spellings of one ingest path, not two paths.
func TestBinaryIngestParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		star bool
		recs func(lo, hi int) []sample.NodeObservation
	}{
		{"star", true, obsRecs},
		{"induced", false, inducedRecs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jsrv, bsrv := parityServer(t, tc.star), parityServer(t, tc.star)
			for _, s := range []*server{jsrv, bsrv} {
				if w := do(t, s, "POST", "/jobs", `{"name":"teal"}`); w.Code != 201 {
					t.Fatalf("create job: %d %s", w.Code, w.Body)
				}
			}
			for lo := 0; lo < 120; lo += 40 {
				recs := tc.recs(lo, lo+40)
				jb, err := json.Marshal(recs)
				if err != nil {
					t.Fatal(err)
				}
				bb, err := wire.EncodeRecords(recs)
				if err != nil {
					t.Fatal(err)
				}
				for _, route := range []string{"/ingest", "/jobs/teal/ingest"} {
					wj := post(t, jsrv, route, string(jb))
					wb := postBin(t, bsrv, route, bb)
					if wj.Code != 200 || wb.Code != 200 {
						t.Fatalf("%s: json %d %s / binary %d %s", route, wj.Code, wj.Body, wb.Code, wb.Body)
					}
					if !bytes.Equal(wj.Body.Bytes(), wb.Body.Bytes()) {
						t.Fatalf("%s ack diverged:\njson   %s\nbinary %s", route, wj.Body, wb.Body)
					}
				}
			}
			for _, path := range []string{
				"/estimate", "/estimate?ci=0.9", "/sums",
				"/jobs/teal/estimate?ci=0.9", "/jobs/teal/sums",
			} {
				a, b := get(t, jsrv, path), get(t, bsrv, path)
				if a.Code != 200 || b.Code != 200 {
					t.Fatalf("GET %s: json %d / binary %d", path, a.Code, b.Code)
				}
				if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
					t.Fatalf("GET %s diverged between encodings:\njson   %s\nbinary %s", path, a.Body, b.Body)
				}
			}
		})
	}
}

// TestBinaryIngest422Parity pins the retry contract across encodings: the
// same mid-batch offender yields byte-identical 422 bodies — "ingested" and
// "index" mean the same thing in both — and the documented
// drop-prefix-and-resend retry converges to the same state.
func TestBinaryIngest422Parity(t *testing.T) {
	jsrv, bsrv := parityServer(t, true), parityServer(t, true)
	recs := []sample.NodeObservation{httpObs(1), httpObs(2), {Node: 5, Cat: 9}, httpObs(3)}
	jb, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := wire.EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	wj := post(t, jsrv, "/ingest", string(jb))
	wb := postBin(t, bsrv, "/ingest", bb)
	if wj.Code != 422 || wb.Code != 422 {
		t.Fatalf("want 422/422, got json %d / binary %d", wj.Code, wb.Code)
	}
	if !bytes.Equal(wj.Body.Bytes(), wb.Body.Bytes()) {
		t.Fatalf("422 bodies diverged:\njson   %s\nbinary %s", wj.Body, wb.Body)
	}
	var doc struct{ Ingested, Total, Index int }
	mustDecode(t, wb.Body.Bytes(), &doc)
	if doc.Ingested != 2 || doc.Total != 4 || doc.Index != 2 {
		t.Fatalf("422 body = %+v, want ingested=2 total=4 index=2", doc)
	}
	// Retry the remainder (offender fixed) on both and require convergence.
	rest := []sample.NodeObservation{{Node: 5, Cat: 1}, httpObs(3)}
	jb, _ = json.Marshal(rest)
	bb, _ = wire.EncodeRecords(rest)
	if w := post(t, jsrv, "/ingest", string(jb)); w.Code != 200 {
		t.Fatalf("json retry: %d %s", w.Code, w.Body)
	}
	if w := postBin(t, bsrv, "/ingest", bb); w.Code != 200 {
		t.Fatalf("binary retry: %d %s", w.Code, w.Body)
	}
	a, b := get(t, jsrv, "/sums"), get(t, bsrv, "/sums")
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("post-retry /sums diverged between encodings")
	}
}

// TestBinaryIngestMalformed pins the 400 contract: a body that fails frame
// validation — bad magic, corrupt payload, or a truncated tail — is
// rejected whole before any record is applied, exactly like unparseable
// JSON.
func TestBinaryIngestMalformed(t *testing.T) {
	srv := parityServer(t, true)
	good, err := wire.EncodeRecords(obsRecs(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty body":      {},
		"bad magic":       append([]byte("TOPOREC9"), good[8:]...),
		"flipped payload": func() []byte { b := bytes.Clone(good); b[len(b)-3] ^= 0x40; return b }(),
		"truncated":       good[:len(good)-5],
		"json body":       []byte(`[{"node":1,"cat":0}]`),
	}
	for name, body := range cases {
		if w := postBin(t, srv, "/ingest", body); w.Code != 400 {
			t.Errorf("%s: got %d %s, want 400", name, w.Code, w.Body)
		}
	}
	if w := get(t, srv, "/estimate"); w.Code == 200 {
		t.Fatalf("rejected batches were applied: /estimate = %d %s", w.Code, w.Body)
	}
	// A parameterized content type still selects the binary decoder.
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(good))
	req.Header.Set("Content-Type", wire.RecordsContentType+"; charset=binary")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("parameterized content type: %d %s", w.Code, w.Body)
	}
}
