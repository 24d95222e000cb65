package main

import (
	"encoding/json"
	"testing"

	"repro/internal/crawl"
	"repro/internal/gen"
	"repro/internal/job"
	"repro/internal/randx"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// FuzzIngestJSON posts arbitrary bytes to POST /ingest of a star
// epoch-merged server and an induced single-lock server. Whatever the body,
// the answer must be a JSON document with status 200, 400 or 422, and on
// 200 and 422 the stream must have grown by exactly the "ingested" count
// the body reports — the retry protocol's promise (see the package doc).
func FuzzIngestJSON(f *testing.F) {
	for _, body := range []string{
		`{"node":1,"cat":0,"deg":2,"nbr_cat":[1],"nbr_cnt":[2]}`,
		`[{"node":2,"cat":1,"deg":3,"nbr_cat":[0],"nbr_cnt":[2]},
		{"node":3,"cat":2,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]}]`,
		`[{"node":1,"cat":0,"deg":1,"nbr_cat":[1],"nbr_cnt":[1]},{"node":2,"cat":1,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]},{"node":3,"cat":9},{"node":4,"cat":2}]`,
		`[{"node":8,"cat":0},{"node":9,"deg":1,"nbr_cat":[0],"nbr_cnt":[1]}]`,
		`[{"node":1,"cat":0},{"node":2,"cat":1,"peers":[1]},{"node":1,"cat":0,"weight":2}]`,
		`{"node":9,"cat":7}`,
		`{"node":`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := stream.Config{K: 3, N: 100, Replicates: uncert.Config{B: 3, Seed: 1}}
		starCfg := cfg
		starCfg.Star = true
		epoch, err := stream.NewEpochAccumulator(starCfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		single, err := stream.NewAccumulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, acc := range []stream.Ingester{epoch, single} {
			w := post(t, newServer(acc, nil), "/ingest", string(body))
			var doc struct {
				Ingested *int `json:"ingested"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatalf("status %d with a non-JSON body %q: %v", w.Code, w.Body, err)
			}
			switch w.Code {
			case 200, 422:
				if doc.Ingested == nil {
					t.Fatalf("status %d body %s has no \"ingested\"", w.Code, w.Body)
				}
				if got := acc.Draws(); got != *doc.Ingested {
					t.Fatalf("status %d reports %d ingested, stream holds %d draws", w.Code, *doc.Ingested, got)
				}
			case 400:
			default:
				t.Fatalf("status %d %s, want 200, 400 or 422", w.Code, w.Body)
			}
		}
	})
}

// FuzzCreateJob posts arbitrary bytes to POST /jobs of a server whose
// template carries category names. Whatever the body, the answer must be a
// JSON document with status 201, 400, 409 or 500, and a 201 names a job
// the registry serves.
func FuzzCreateJob(f *testing.F) {
	for _, body := range []string{
		`{"name":"x"}`,
		`{"name":"x","k":5}`,
		`{"name":"x","names":["u","v"],"star":false}`,
		`{"name":"x","k":2,"names":null,"n":1000,"size":"star-pooled"}`,
		`{"name":"x","shards":4,"bootstrap":20,"bootstrap_seed":9}`,
		`{"name":"x","shards":2,"star":false}`,
		`{"name":"default"}`,
		`{"name":"a/b"}`,
		`{"k":5}`,
		`{"name":"x","k":16777217}`,
		`{"name":"x","size":"bogus"}`,
		`{"name":`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Spec.validate lets K·B reach job.MaxReplicateCells, whose
		// replicate grids take tens of megabytes; keep each iteration small.
		var probe job.Spec
		if json.Unmarshal(body, &probe) == nil {
			k := max(probe.K, len(probe.Names))
			if k > 1<<10 || probe.Bootstrap > 1<<10 || k*probe.Bootstrap > 1<<14 {
				t.Skip("accumulator too large for a fuzz iteration")
			}
		}
		acc, err := stream.NewAccumulator(stream.Config{K: 3, Star: true, N: 100})
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(acc, []string{"a", "b", "c"})
		w := post(t, srv, "/jobs", string(body))
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON body %q", w.Code, w.Body)
		}
		switch w.Code {
		case 201:
			var doc struct{ Name string }
			mustDecode(t, w.Body.Bytes(), &doc)
			j, err := srv.jobs.Get(doc.Name)
			if err != nil {
				t.Fatalf("201 for job %q the registry does not serve: %v", doc.Name, err)
			}
			if k := j.Acc().Config().K; k != j.Spec().K || len(j.Names()) != k {
				t.Fatalf("job %q: accumulator K=%d, spec K=%d, %d names", doc.Name, k, j.Spec().K, len(j.Names()))
			}
		case 400, 409, 500:
		default:
			t.Fatalf("status %d %s, want 201, 400, 409 or 500", w.Code, w.Body)
		}
	})
}

// FuzzStartCrawl posts arbitrary bytes to POST /crawl of a crawl-mode
// server over a small paper graph. Whatever the body, the answer must be a
// JSON document with status 202, 400, 409 or 422, and an accepted crawl
// must finish without error.
func FuzzStartCrawl(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"walkers":4,"sampler":"MHRW","engine":"replication","size_target":0.05,"size_cats":[0,1],"level":0.9,"max_draws":400,"check_every":100}`,
		`{"sampler":"S-WRW","thin":2,"burn_in":0,"seed":7,"within_target":0.01,"within_cats":[2]}`,
		`{"size_target":0.001,"min_draws":300,"max_draws":600}`,
		`{"walkers":3000000000}`,
		`{"size_target":0.001,"size_cats":[]}`,
		`{"within_target":0.01,"within_cats":[99]}`,
		`{"sampler":"BFS"}`,
		`{"engine":"magic"}`,
		`{"max_draws":0}`,
		`{"level":1.5}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	g, err := gen.Paper(randx.New(11), gen.PaperConfig{
		Sizes: []int64{60, 100, 200, 400}, K: 6, Alpha: 0.3, Connect: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	defaults := crawl.Config{
		Walkers: 2, Sampler: crawl.SamplerRW, N: float64(g.N()),
		MaxDraws: 200, CheckEvery: 100, BurnIn: 10, Seed: 1,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Draws, burn-in and thinning multiply a crawl's walk steps; bound
		// them so every iteration finishes quickly.
		probe := defaults
		if json.Unmarshal(body, &probe) == nil && (probe.MaxDraws > 1e4 || probe.BurnIn > 1e4 || probe.Thin > 100) {
			t.Skip("crawl too long for a fuzz iteration")
		}
		acc, err := stream.NewAccumulator(stream.Config{
			K: g.NumCategories(), Star: true, N: float64(g.N()),
			Replicates: uncert.Config{B: 20, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(acc, nil)
		srv.crawlSource, srv.crawlDefaults = g, defaults
		w := post(t, srv, "/crawl", string(body))
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON body %q", w.Code, w.Body)
		}
		switch w.Code {
		case 202:
			if _, err := srv.def.Crawl().Wait(); err != nil {
				t.Fatalf("accepted crawl %s failed: %v", body, err)
			}
		case 400, 409, 422:
		default:
			t.Fatalf("status %d %s, want 202, 400, 409 or 422", w.Code, w.Body)
		}
	})
}
