package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
)

// span is one timed call into a layer during the traced replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Run    string `json:"run"`
}

// tracer keeps spans in memory. A disabled tracer records nothing, so the
// same replay code measures the tracing overhead by running untraced.
type tracer struct {
	on    bool
	run   string
	t0    time.Time
	root  int // parent of every span begun after it; -1 before
	spans []span
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, t0: time.Now(), root: -1}
}

// begin opens a span under the tracer's root and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.root, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns each span name's total self time in seconds — its
// spans' durations minus the parts their child spans cover — and each
// name's span count.
func selfTimes(spans []span) (self map[string]float64, count map[string]int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, count = map[string]float64{}, map[string]int{}
	for i, s := range spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		count[s.Name]++
	}
	return self, count
}

// replay is the outcome of a traced replay of one run's inputs.
type replay struct {
	spans     []span
	wall      float64 // traced replay, seconds
	plainWall float64 // the same replay untraced, seconds
	metrics   []layerMetric
}

// runReplay runs body twice on fresh state, traced and untraced, and keeps
// the traced spans.
func runReplay(run string, body func(t *tracer) error) (*replay, error) {
	plain := newTracer(false, run)
	if err := body(plain); err != nil {
		return nil, err
	}
	plainWall := time.Since(plain.t0).Seconds()
	traced := newTracer(true, run)
	traced.root = traced.begin("replay")
	if err := body(traced); err != nil {
		return nil, err
	}
	traced.end(traced.root)
	return &replay{spans: traced.spans, wall: time.Since(traced.t0).Seconds(), plainWall: plainWall}, nil
}

// perUnit divides a layer's self time by a work count in the given scale
// (1e9 for ns per record, 1e3 for ms per operation); 0 when the layer did
// no work.
func perUnit(self map[string]float64, name string, units int, scale float64) float64 {
	return ratio(self[name]*scale, float64(units))
}

// tracedMetrics fills the replay's per-layer metrics from its spans.
// Every workload reports every metric; a layer a workload does not
// exercise reports 0.
func (r *replay) tracedMetrics(records int, extra map[string]float64) {
	self, count := selfTimes(r.spans)
	ms := func(name string) float64 { return perUnit(self, name, count[name], 1e3) }
	r.metrics = []layerMetric{
		{"wire.records_decode.ns_per_record", perUnit(self, "wire.records_decode", records, 1e9), "ns/record"},
		{"stream.local_ingest.ns_per_record", perUnit(self, "stream.local_ingest", records, 1e9), "ns/record"},
		{"stream.flush.ns_per_record", perUnit(self, "stream.flush", records, 1e9), "ns/record"},
		{"topoestd.json_decode.ns_per_record", perUnit(self, "topoestd.json_decode", records, 1e9), "ns/record"},
		{"stream.accumulator_ingest.ns_per_record", perUnit(self, "stream.accumulator_ingest", records, 1e9), "ns/record"},
		{"stream.snapshot.ms", ms("stream.snapshot"), "ms/op"},
		{"uncert.ci.ms", ms("uncert.ci"), "ms/op"},
		{"wire.sums_encode.ms", ms("wire.sums_encode"), "ms/op"},
		{"wire.sums_decode.ms", ms("wire.sums_decode"), "ms/op"},
		{"stream.pool_rebuild.ms", ms("stream.pool_rebuild"), "ms/op"},
		{"job.checkpoint.ms", ms("job.checkpoint"), "ms/op"},
		{"crawl.run.s", self["crawl.run"], "s"},
		{"graph.source_calls", extra["graph.source_calls"], "count"},
		{"sample.step.s", extra["sample.step.s"], "s"},
		{"replay.records", float64(records), "count"},
	}
}

// writeSpans stores the traced spans as JSON under .bench_build/trace, one
// file per run id.
func writeSpans(spans []span) (string, error) {
	if len(spans) == 0 {
		return "", fmt.Errorf("no spans")
	}
	if err := os.MkdirAll(".bench_build/trace", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(".bench_build/trace", spans[0].Run+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// ledger prints the per-layer self times of the traced replay against the
// end-to-end wall time of the measured phase and returns every per-layer
// metric: the daemon's /metrics deltas, the replay's per-layer costs, the
// generator's CPU time, the residual and the tracing overhead.
func ledger(w io.Writer, daemon []layerMetric, r *replay, e2eWall, clientCPU float64) []layerMetric {
	self, count := selfTimes(r.spans)
	names := make([]string, 0, len(self))
	var sum float64
	for name := range self {
		if name == "replay" {
			continue
		}
		names = append(names, name)
		sum += self[name]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "ledger: end-to-end wall %.4f s; traced replay %.4f s (%.4f s untraced, %.4f s outside layer spans)\n",
		e2eWall, r.wall, r.plainWall, self["replay"])
	for _, name := range names {
		fmt.Fprintf(w, "ledger: %-28s self %10.4f s  %6.2f%% of wall  (%d spans)\n",
			name, self[name], 100*self[name]/e2eWall, count[name])
	}
	residual := e2eWall - sum
	fmt.Fprintf(w, "ledger: %-28s      %10.4f s  %6.2f%% of wall  (HTTP, kernel, client and scheduling)\n",
		"residual", residual, 100*residual/e2eWall)
	overhead := 100 * ratio(r.wall-r.plainWall, r.plainWall)
	fmt.Fprintf(w, "ledger: tracing overhead %.2f%% (%d spans)\n", overhead, len(r.spans))
	if path, err := writeSpans(r.spans); err != nil {
		fmt.Fprintln(w, "ledger: writing spans:", err)
	} else {
		fmt.Fprintln(w, "ledger: spans written to", path)
	}
	out := append(append([]layerMetric(nil), daemon...), r.metrics...)
	return append(out,
		layerMetric{"client.cpu_s", clientCPU, "s"},
		layerMetric{"residual.s", residual, "s"},
		layerMetric{"trace.overhead_pct", overhead, "%"},
		layerMetric{"trace.spans", float64(len(r.spans)), "count"},
	)
}

// layerValue looks a metric up by name (0 when absent).
func layerValue(ms []layerMetric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// replayRegistry returns a fresh job registry for a replay; dir enables
// checkpoints.
func replayRegistry(dir string) (*job.Registry, error) {
	return job.NewRegistry(dir, time.Hour, slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// readJob replays one GET /estimate?ci and one GET /sums worth of layer
// calls on j: the snapshot, the interval computations when the job has
// replicates, the export and encode, and the decode and merge-pool rebuild
// a coordinator would run on the payload.
func readJob(t *tracer, j *job.Job, est, sums bool) error {
	if est {
		var snap *stream.Snapshot
		if err := t.do("stream.snapshot", func() (err error) { snap, _, err = j.Snapshot(); return err }); err != nil {
			return err
		}
		if snap.Boot != nil {
			t.do("uncert.ci", func() error {
				snap.Boot.PopCI(ciLevel)
				for c := range snap.Result.Sizes {
					snap.Boot.SizeCI(c, ciLevel)
					snap.Boot.WithinCI(c, ciLevel)
				}
				snap.Result.Weights.ForEach(func(a, b int32, _ float64) { snap.Boot.WeightCI(a, b, ciLevel) })
				return nil
			})
		}
	}
	if !sums {
		return nil
	}
	var payload []byte
	if err := t.do("wire.sums_encode", func() error {
		st, err := j.Acc().Export()
		if err != nil {
			return err
		}
		payload, err = wire.Encode(st)
		return err
	}); err != nil {
		return err
	}
	var st *stream.State
	if err := t.do("wire.sums_decode", func() (err error) { st, err = wire.Decode(payload); return err }); err != nil {
		return err
	}
	return t.do("stream.pool_rebuild", func() error {
		pool, err := stream.NewPool(j.Acc().Config())
		if err != nil {
			return err
		}
		return pool.Rebuild([]*stream.State{st})
	})
}

// spread returns how many of total events fall due after step i of n
// steps, spacing them evenly.
func spread(i, n, total int) int { return (i+1)*total/n - i*total/n }

// replayStar replays star-binary-ingest: each sent body is decoded from
// TOPOREC1, ingested into a writer-local epoch and flushed, as the daemon's
// binary ingest path does, with the measured phase's estimate and sums
// reads spread evenly between its bodies. The warm bodies sent before the
// measured phase are replayed untraced.
func replayStar(run string, bodies []body, warm, sent, k int, n float64, nEst, nSums int) (*replay, error) {
	records := 0
	for i := warm; i < warm+sent; i++ {
		records += len(bodies[i%len(bodies)].recs)
	}
	off := newTracer(false, run)
	r, err := runReplay(run, func(t *tracer) error {
		reg, err := replayRegistry("")
		if err != nil {
			return err
		}
		j, err := reg.Create(job.Spec{Name: "replay", K: k, Star: true, N: n, Shards: 2})
		if err != nil {
			return err
		}
		var it wire.RecordIter
		recs := make([]sample.NodeObservation, 0, starBatch)
		l := j.TakeLocal()
		defer j.PutLocal(l)
		for i := 0; i < warm+sent; i++ {
			b := bodies[i%len(bodies)]
			t := t
			if i < warm {
				t = off
			}
			if err := t.do("wire.records_decode", func() error {
				if err := it.Reset(b.data); err != nil {
					return err
				}
				recs = recs[:0]
				var rec sample.NodeObservation
				for it.Next(&rec) {
					rec.NbrCat = append([]int32(nil), rec.NbrCat...)
					rec.NbrCnt = append([]float64(nil), rec.NbrCnt...)
					recs = append(recs, rec)
				}
				return nil
			}); err != nil {
				return err
			}
			if err := t.do("stream.local_ingest", func() error {
				for _, rec := range recs {
					if err := l.Ingest(rec); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			t.do("stream.flush", func() error { l.Flush(); return nil })
			if i < warm {
				continue
			}
			e, s := spread(i-warm, sent, nEst), spread(i-warm, sent, nSums)
			for k := 0; k < max(e, s); k++ {
				if err := readJob(t, j, k < e, k < s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.tracedMetrics(records, nil)
	return r, nil
}

// wireRecord mirrors topoestd's JSON ingest record, so the replay decodes
// the bodies exactly as the daemon does.
type wireRecord struct {
	Node   int32     `json:"node"`
	Weight float64   `json:"weight"`
	Cat    *int32    `json:"cat"`
	Deg    float64   `json:"deg"`
	NbrCat []int32   `json:"nbr_cat"`
	NbrCnt []float64 `json:"nbr_cnt"`
	Peers  []int32   `json:"peers"`
}

// replayInduced replays induced-json-rw: each sent body is JSON-decoded and
// batch-ingested into a single-lock job with replicates, with the measured
// phase's estimate reads, sums reads and checkpoint frames spread evenly
// between its bodies. The first warm bodies, sent before the measured
// phase, are replayed untraced.
func replayInduced(run, dir string, sent []body, warm int, cfg stream.Config, nEst, nSums, frames int) (*replay, error) {
	records := 0
	for _, b := range sent[warm:] {
		records += len(b.recs)
	}
	off := newTracer(false, run)
	r, err := runReplay(run, func(t *tracer) error {
		ckdir, err := os.MkdirTemp(dir, "replay-ckpt-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(ckdir)
		reg, err := replayRegistry(ckdir)
		if err != nil {
			return err
		}
		j, err := reg.Create(job.Spec{Name: "replay", K: cfg.K, Star: false, N: cfg.N, Shards: 1,
			Bootstrap: cfg.Replicates.B, BootstrapSeed: cfg.Replicates.Seed})
		if err != nil {
			return err
		}
		defer reg.Delete("replay")
		for i, b := range sent {
			t := t
			if i < warm {
				t = off
			}
			var recs []sample.NodeObservation
			if err := t.do("topoestd.json_decode", func() error {
				var ws []wireRecord
				if err := json.Unmarshal(b.data, &ws); err != nil {
					return err
				}
				recs = make([]sample.NodeObservation, len(ws))
				for k, wr := range ws {
					recs[k] = sample.NodeObservation{Node: wr.Node, Weight: wr.Weight, Cat: *wr.Cat,
						Deg: wr.Deg, NbrCat: wr.NbrCat, NbrCnt: wr.NbrCnt, Peers: wr.Peers}
				}
				return nil
			}); err != nil {
				return err
			}
			if err := t.do("stream.accumulator_ingest", func() error {
				_, err := j.Acc().IngestBatch(recs)
				return err
			}); err != nil {
				return err
			}
			if i < warm {
				continue
			}
			m, nm := i-warm, len(sent)-warm
			e, s := spread(m, nm, nEst), spread(m, nm, nSums)
			for k := 0; k < max(e, s); k++ {
				if err := readJob(t, j, k < e, k < s); err != nil {
					return err
				}
			}
			for k := spread(m, nm, frames); k > 0; k-- {
				if err := t.do("job.checkpoint", func() error { _, err := j.Checkpoint(); return err }); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.tracedMetrics(records, nil)
	return r, nil
}

// countingSource is a graph.Source decorator that counts every call.
type countingSource struct {
	graph.Source
	calls atomic.Int64
}

func (c *countingSource) Degree(v int32) int         { c.calls.Add(1); return c.Source.Degree(v) }
func (c *countingSource) Neighbors(v int32) []int32  { c.calls.Add(1); return c.Source.Neighbors(v) }
func (c *countingSource) Category(v int32) int32     { c.calls.Add(1); return c.Source.Category(v) }
func (c *countingSource) NodeWeight(v int32) float64 { c.calls.Add(1); return c.Source.NodeWeight(v) }

// Unwrap implements graph.Unwrapper, so category statistics resolve
// through the decorator.
func (c *countingSource) Unwrap() graph.Source { return c.Source }

// replayCrawl replays crawl-budget: the run's crawls, each through the job
// layer into a fresh job over a call-counting graph source, followed by the
// reads the run made. A separate walk of the same number of steps, outside
// the ledger, times the walk kernel alone.
func replayCrawl(run string, g *graph.Graph, seed uint64, n float64, crawls int) (*replay, error) {
	src := &countingSource{Source: g}
	cfg := crawlConfig(seed, n)
	r, err := runReplay(run, func(t *tracer) error {
		reg, err := replayRegistry("")
		if err != nil {
			return err
		}
		for i := 0; i < crawls; i++ {
			name := fmt.Sprintf("replay-%d", i)
			j, err := reg.Create(job.Spec{Name: name, K: g.NumCategories(), Star: true, N: n, Shards: 2,
				Bootstrap: crawlBoot, BootstrapSeed: mix(seed, 4)})
			if err != nil {
				return err
			}
			var gsrc graph.Source = g
			if t.on {
				gsrc = src
			}
			if err := t.do("crawl.run", func() error {
				c, err := j.StartCrawl(gsrc, cfg)
				if err != nil {
					return err
				}
				_, err = c.Wait()
				return err
			}); err != nil {
				return err
			}
			for k := 0; k < crawlReads; k++ {
				if err := readJob(t, j, true, true); err != nil {
					return err
				}
			}
			if err := reg.Delete(name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	calls := float64(src.calls.Load())
	steps := crawls * (crawlWalkers*crawlBurnIn + crawlBudget)
	t0 := time.Now()
	rng := randx.New(mix(seed, 5))
	cur, err := sample.RandomStart(rng, g)
	if err != nil {
		return nil, err
	}
	step := sample.NewRWStepper(g)
	for i := 0; i < steps; i++ {
		cur = step.Step(rng, cur)
	}
	r.tracedMetrics(crawls*crawlBudget, map[string]float64{
		"graph.source_calls": calls,
		"sample.step.s":      time.Since(t0).Seconds(),
	})
	return r, nil
}
