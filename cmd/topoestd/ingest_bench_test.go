package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/job"
	"repro/internal/randx"
	"repro/internal/sample"
)

// BenchmarkIngestHandler prices one JSON POST /ingest through the handler
// into a star job built the way the daemon builds its default job
// (Registry.Create, no replicates), for a one-record body and a 500-record
// body. The bodies cut a random walk of the daemon's crawl graph in order
// and are cycled, so later passes re-draw known nodes.
func BenchmarkIngestHandler(b *testing.B) {
	g, err := gen.Paper(randx.New(1), gen.PaperConfig{
		Sizes:   []int64{60, 80, 100, 200, 500, 800, 1000, 2000, 3000, 5000},
		K:       20,
		Alpha:   0.5,
		Connect: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const draws = 50_000
	s, err := sample.NewRW(1000).Sample(randx.New(2), g, draws)
	if err != nil {
		b.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		recs[i] = so.Observe(v, s.Weight(i))
	}
	for _, n := range []int{1, 500} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			var bodies [][]byte
			for lo := 0; lo+n <= len(recs); lo += n {
				body, err := json.Marshal(recs[lo : lo+n])
				if err != nil {
					b.Fatal(err)
				}
				bodies = append(bodies, body)
			}
			reg, err := job.NewRegistry("", 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			def, err := reg.Create(job.Spec{Name: job.DefaultName, K: g.NumCategories(), Star: true, N: float64(g.N())})
			if err != nil {
				b.Fatal(err)
			}
			srv := newServerWithJobs(reg, def)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(bodies[i%len(bodies)]))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("POST /ingest: %d %s", w.Code, w.Body)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
