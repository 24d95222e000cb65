package main

import (
	"encoding/json"
	"testing"

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
