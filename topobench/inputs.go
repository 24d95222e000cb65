package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/wire"
)

// paperSizes and the generator settings below must match the paper graph
// topoestd builds in -crawl mode (cmd/topoestd crawlBackend): the crawl
// workload passes the same graph seed to the daemon as -demo-seed and
// rebuilds the graph in-process for its reference crawl.
var paperSizes = []int64{60, 80, 100, 200, 500, 800, 1000, 2000, 3000, 5000}

// paperGraph generates the §6.2.1 paper graph for a graph seed.
func paperGraph(seed uint64) (*graph.Graph, error) {
	return gen.Paper(randx.New(seed), gen.PaperConfig{Sizes: paperSizes, K: 20, Alpha: 0.5, Connect: true})
}

// walkBurnIn is the number of transitions each generated walk discards
// before its first record.
const walkBurnIn = 1000

// walkRecords draws n records from one simple random walk over g, observed
// under the star or induced scenario exactly as a crawler would see them:
// star records carry degree and neighbour categories on a node's first
// draw, induced records list the edges to previously drawn nodes.
func walkRecords(g graph.Source, seed uint64, n int, star bool) ([]sample.NodeObservation, error) {
	rng := randx.New(seed)
	cur, err := sample.RandomStart(rng, g)
	if err != nil {
		return nil, err
	}
	step := sample.NewRWStepper(g)
	obs, err := sample.NewStreamObserver(g, star)
	if err != nil {
		return nil, err
	}
	for i := 0; i < walkBurnIn; i++ {
		cur = step.Step(rng, cur)
	}
	recs := make([]sample.NodeObservation, n)
	for i := range recs {
		cur = step.Step(rng, cur)
		recs[i] = obs.Observe(cur, step.Weight(cur))
	}
	return recs, nil
}

// jsonRecord is the generator's JSON form of one record: the fields
// POST /ingest reads, with the unused ones omitted.
type jsonRecord struct {
	Node   int32     `json:"node"`
	Weight float64   `json:"weight"`
	Cat    int32     `json:"cat"`
	Deg    float64   `json:"deg,omitempty"`
	NbrCat []int32   `json:"nbr_cat,omitempty"`
	NbrCnt []float64 `json:"nbr_cnt,omitempty"`
	Peers  []int32   `json:"peers,omitempty"`
}

// body is one pre-encoded request body and the records it carries.
type body struct {
	data []byte
	recs []sample.NodeObservation
}

// encodeBodies splits recs into batches of size batch and encodes each as
// TOPOREC1 (binary) or a JSON array.
func encodeBodies(recs []sample.NodeObservation, batch int, binary bool) ([]body, error) {
	var out []body
	for lo := 0; lo < len(recs); lo += batch {
		part := recs[lo:min(lo+batch, len(recs))]
		var data []byte
		var err error
		if binary {
			data, err = wire.EncodeRecords(part)
		} else {
			js := make([]jsonRecord, len(part))
			for i, r := range part {
				js[i] = jsonRecord{Node: r.Node, Weight: r.Weight, Cat: r.Cat, Deg: r.Deg, NbrCat: r.NbrCat, NbrCnt: r.NbrCnt, Peers: r.Peers}
			}
			data, err = json.Marshal(js)
		}
		if err != nil {
			return nil, fmt.Errorf("encode batch at %d: %w", lo, err)
		}
		out = append(out, body{data: data, recs: part})
	}
	return out, nil
}

// properties describes the inputs a run sent, so that a claim restricted to
// inputs with some property can cite the measured share.
type properties struct {
	records, bodies, distinct int
	bytes                     int64
	starRecs, nbrCats         int
	peerRecs, peers           int
}

// addBody counts one sent body (sent times) into the properties.
func (p *properties) addBody(b body, times int, seen map[int32]bool) {
	if times == 0 {
		return
	}
	p.bodies += times
	p.records += times * len(b.recs)
	p.bytes += int64(times * len(b.data))
	for _, r := range b.recs {
		if !seen[r.Node] {
			seen[r.Node] = true
			p.distinct++
		}
		if len(r.NbrCat) > 0 {
			p.starRecs += times
			p.nbrCats += times * len(r.NbrCat)
		}
		if len(r.Peers) > 0 {
			p.peerRecs += times
			p.peers += times * len(r.Peers)
		}
	}
}

func (p *properties) write(w io.Writer, star bool) {
	fmt.Fprintf(w, "inputs: %d records in %d bodies, %.1f records/body, %.1f bytes/body, %.1f bytes/record\n",
		p.records, p.bodies, ratio(float64(p.records), float64(p.bodies)),
		ratio(float64(p.bytes), float64(p.bodies)), ratio(float64(p.bytes), float64(p.records)))
	fmt.Fprintf(w, "inputs: %d distinct nodes, re-draw share %.4f\n",
		p.distinct, 1-ratio(float64(p.distinct), float64(p.records)))
	if star {
		fmt.Fprintf(w, "inputs: star info on %.4f of records, %.2f neighbour categories per star record\n",
			ratio(float64(p.starRecs), float64(p.records)), ratio(float64(p.nbrCats), float64(p.starRecs)))
	} else {
		fmt.Fprintf(w, "inputs: peers on %.4f of records, %.3f peers per record, %.2f per record with peers\n",
			ratio(float64(p.peerRecs), float64(p.records)), ratio(float64(p.peers), float64(p.records)),
			ratio(float64(p.peers), float64(p.peerRecs)))
	}
}
