package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// benchCrawlJob serves a crawl-shaped job: the daemon's crawl graph (K =
// 10), an epoch-merged accumulator with B = 100 replicates, and 10,000
// random-walk draws. It also returns further draws of the walk, which a
// miss benchmark ingests one at a time to move the generation.
func benchCrawlJob(b *testing.B) (*server, stream.Ingester, []sample.NodeObservation) {
	b.Helper()
	g, err := gen.Paper(randx.New(1), gen.PaperConfig{
		Sizes:   []int64{60, 80, 100, 200, 500, 800, 1000, 2000, 3000, 5000},
		K:       20,
		Alpha:   0.5,
		Connect: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const draws, extra = 10000, 4000
	s, err := sample.NewRW(1000).Sample(randx.New(2), g, draws+extra)
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
	acc, err := stream.NewEpochAccumulator(stream.Config{K: g.NumCategories(), Star: true, N: float64(g.N()),
		Replicates: uncert.Config{B: 100, Seed: 3}}, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := acc.IngestBatch(recs[:draws]); err != nil {
		b.Fatal(err)
	}
	return newServer(acc, nil), acc, recs[draws:]
}

// benchRead times GET path against a crawl-shaped job. hit reads at one
// generation, so every read after the first is served from the job's
// cache; a miss ingests one more draw (untimed) before each read, so each
// read computes the snapshot and renders or encodes the body.
func benchRead(b *testing.B, path, acceptEncoding string) {
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			srv, acc, more := benchCrawlJob(b)
			req := httptest.NewRequest("GET", path, nil)
			if acceptEncoding != "" {
				req.Header.Set("Accept-Encoding", acceptEncoding)
			}
			serve := func() {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
				}
			}
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if miss {
					b.StopTimer()
					j := i % len(more)
					if _, err := acc.IngestBatch(more[j : j+1]); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				serve()
			}
		})
	}
}

// BenchmarkEstimateHandler prices GET /estimate?ci=0.95, cached and not:
// the read layer beside the uncert.ci ledger row.
func BenchmarkEstimateHandler(b *testing.B) { benchRead(b, "/estimate?ci=0.95", "") }

// BenchmarkSumsHandler prices GET /sums, identity-encoded as topobench asks
// for it, cached and not: the read layer beside the wire.sums_encode ledger
// row.
func BenchmarkSumsHandler(b *testing.B) { benchRead(b, "/sums", "") }

// BenchmarkSumsHandlerGzip prices GET /sums as the coordinator's transport
// asks for it, gzip-encoded.
func BenchmarkSumsHandlerGzip(b *testing.B) { benchRead(b, "/sums", "gzip") }
