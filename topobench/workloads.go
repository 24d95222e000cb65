package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

const (
	jobName = "bench"
	ciLevel = 0.95

	starBatch     = 500  // records per TOPOREC1 body
	starBodies    = 1000 // distinct bodies, sent round-robin
	starReadEvery = 25   // each writer reads /estimate and /sums after every 25th write

	inducedBatch = 200     // records per JSON body
	inducedBoot  = 200     // bootstrap replicates of the induced job
	inducedMax   = 400000  // records generated for the write phase
	inducedCkpt  = "250ms" // -checkpoint-interval of the induced daemon

	crawlWalkers = 2
	crawlBurnIn  = 1000
	crawlCheck   = 2000
	crawlBudget  = 10000 // max_draws of every crawl
	crawlBoot    = 100
	crawlReads   = 3 // passes over /estimate?ci and /sums after each crawl, per reader

	// warmup is how long the ingest workloads write before the measured
	// phase, so that lazy set-up in the daemon and in the generator is done
	// before timing starts. The warm-up records count for the correctness
	// check but not for the metrics.
	warmup = time.Second
)

// e2eMetrics assembles the end-to-end metrics every workload reports. The
// latency medians go into the result line; the tails (the highest
// percentile with at least ten samples beyond it, see tailPercentile) are
// printed with their sample counts but left out of the result line, because
// on a shared two-core machine they move too much between runs to bound a
// regression.
func e2eMetrics(o *options, setup, recsPerSec float64, write, est, sums summary, rssMB float64) []layerMetric {
	fmt.Fprintf(o.out, "write latency: %v\nestimate latency: %v\nsums latency: %v\n", write, est, sums)
	return []layerMetric{
		{"setup_s", setup, "s"},
		{"records_per_s", recsPerSec, "1/s"},
		{"write_p50_ms", write.p50, "ms"},
		{"estimate_p50_ms", est.p50, "ms"},
		{"sums_p50_ms", sums.p50, "ms"},
		{"rss_mb", rssMB, "MB"},
	}
}

// checkEstimate compares the daemon's estimate at path with the reference
// snapshot and returns the failed check, if any, as one problem.
func checkEstimate(w io.Writer, d *daemon, path string, ref *stream.Snapshot) []string {
	got := &estimateDoc{}
	if err := d.doJSON("GET", path, nil, http.StatusOK, got); err != nil {
		return []string{"final estimate: " + err.Error()}
	}
	mism, maxRel := compareEstimates(got, referenceDoc(ref, ciLevel))
	fmt.Fprintf(w, "check: %s vs in-process reference: %d scalars differ beyond %.0e (max rel diff %.3g)\n",
		path, len(mism), checkTol, maxRel)
	if len(mism) == 0 {
		return nil
	}
	if len(mism) > 3 {
		mism = append(mism[:3], fmt.Sprintf("and %d more", len(mism)-3))
	}
	return []string{path + " differs from the reference: " + strings.Join(mism, "; ")}
}

// runStarBinary is the star-binary-ingest workload: two closed-loop writers
// send TOPOREC1 batches of star records from a random walk into an
// epoch-merged job, each reading the estimate and the sums after every
// starReadEvery-th of its writes.
func runStarBinary(o *options) (*outcome, error) {
	g, err := paperGraph(mix(o.seed, 1))
	if err != nil {
		return nil, err
	}
	recs, err := walkRecords(g, mix(o.seed, 2), starBatch*starBodies, true)
	if err != nil {
		return nil, err
	}
	bodies, err := encodeBodies(recs, starBatch, true)
	if err != nil {
		return nil, err
	}
	n := float64(g.NumNodes())
	spec := map[string]any{"name": jobName, "k": g.NumCategories(), "star": true, "shards": 2, "n": n}
	args := func(int) []string { return []string{"-k", strconv.Itoa(g.NumCategories())} }
	d, setup, err := setupDaemon(o, args, spec, 2)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ingest := "/jobs/" + jobName + "/ingest"
	warm := writeLoop(d, ingest, wire.RecordsContentType, bodies, 0, 2, warmup, true, nil, nil)
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	estPath, sumsPath := "/jobs/"+jobName+"/estimate", "/jobs/"+jobName+"/sums"
	r := newReadResult(estPath, sumsPath)
	w := writeLoop(d, ingest, wire.RecordsContentType, bodies, warm.sent, 2, seconds(o), true, nil,
		&interleaved{every: starReadEvery, paths: []string{estPath, sumsPath}, res: r})
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: warm.sent + w.sent + r.attempted(), failed: warm.failed + w.failed + r.failed}
	reportErrs(o.out, warm.firstErr, w.firstErr, r.firstErr)
	total := warm.sent + w.sent

	props := &properties{}
	seen := map[int32]bool{}
	for j, b := range bodies {
		props.addBody(b, sentTimes(j, total, len(bodies)), seen)
	}
	props.write(o.out, true)

	ref, err := stream.NewAccumulator(stream.Config{K: g.NumCategories(), Star: true, N: n, Size: core.SizeMethodAuto})
	if err != nil {
		return nil, err
	}
	for j, b := range bodies {
		for t := sentTimes(j, total, len(bodies)); t > 0; t-- {
			if _, err := ref.IngestBatch(b.recs); err != nil {
				return nil, fmt.Errorf("reference ingest: %w", err)
			}
		}
	}
	snap, err := ref.Snapshot()
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, checkEstimate(o.out, d, estPath, snap)...)

	out.e2e = e2eMetrics(o, setup, w.rate(),
		w.lat.summarize(), r.lat[estPath].summarize(), r.lat[sumsPath].summarize(), rss)
	fmt.Fprintf(o.out, "client: %.3f CPU s over %.3f s wall (2 writers)\n", w.cpu, w.wall.Seconds())
	fmt.Fprintf(o.out, "write records per second, by tenth of the acknowledgements: %.0f\n", w.chunkRates())
	if o.trace {
		tr, err := replayStar(runID(o), bodies, warm.sent, w.sent, g.NumCategories(), n, len(r.lat[estPath].ms), len(r.lat[sumsPath].ms))
		if err != nil {
			return nil, err
		}
		out.layers = ledger(o.out, daemonLayers(after.minus(before)), tr, w.wall.Seconds(), w.cpu)
	}
	return out, nil
}

// runInducedJSON is the induced-json-rw workload: one closed-loop writer
// sends JSON batches of induced records in stream order into a single-lock
// job with bootstrap replicates and periodic checkpoints, while one
// closed-loop reader alternates GET /estimate?ci=0.95 and GET /sums.
func runInducedJSON(o *options) (*outcome, error) {
	g, err := paperGraph(mix(o.seed, 1))
	if err != nil {
		return nil, err
	}
	recs, err := walkRecords(g, mix(o.seed, 2), inducedMax, false)
	if err != nil {
		return nil, err
	}
	bodies, err := encodeBodies(recs, inducedBatch, false)
	if err != nil {
		return nil, err
	}
	n := float64(g.NumNodes())
	bootSeed := mix(o.seed, 4)
	spec := map[string]any{"name": jobName, "k": g.NumCategories(), "star": false, "shards": 1,
		"bootstrap": inducedBoot, "bootstrap_seed": bootSeed, "n": n}
	args := func(i int) []string {
		return []string{"-k", strconv.Itoa(g.NumCategories()), "-star=false",
			"-checkpoint-dir", filepath.Join(o.dir, fmt.Sprintf("ckpt-%d", i)), "-checkpoint-interval", inducedCkpt}
	}
	d, setup, err := setupDaemon(o, args, spec, 2)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ingest := "/jobs/" + jobName + "/ingest"
	warm := writeLoop(d, ingest, "application/json", bodies, 0, 1, warmup, false, nil, nil)
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	estPath, sumsPath := "/jobs/"+jobName+"/estimate?ci=0.95", "/jobs/"+jobName+"/sums"
	// The reader starts after the first acknowledged write (an empty job
	// has no estimate) and stops when the writer is done.
	started, stop := make(chan struct{}), make(chan struct{})
	readerDone := make(chan *readResult)
	go func() {
		select {
		case <-started:
			readerDone <- readLoop(d, []string{estPath, sumsPath}, stop, 0, 1)
		case <-stop:
			readerDone <- readLoop(d, []string{estPath, sumsPath}, nil, 0, 1)
		}
	}()
	w := writeLoop(d, ingest, "application/json", bodies, warm.sent, 1, seconds(o), false,
		func() { close(started) }, nil)
	close(stop)
	r := <-readerDone
	if warm.sent+w.sent >= len(bodies) {
		fmt.Fprintf(o.out, "note: the writer used all %d generated bodies before %gs passed\n", len(bodies), o.seconds)
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: warm.sent + w.sent + r.attempted(), failed: warm.failed + w.failed + r.failed}
	reportErrs(o.out, warm.firstErr, w.firstErr, r.firstErr)

	sent := bodies[:warm.sent+w.sent]
	props := &properties{}
	seen := map[int32]bool{}
	for _, b := range sent {
		props.addBody(b, 1, seen)
	}
	props.write(o.out, false)

	cfg := stream.Config{K: g.NumCategories(), Star: false, N: n, Size: core.SizeMethodAuto,
		Replicates: uncert.Config{B: inducedBoot, Seed: bootSeed}}
	ref, err := stream.NewAccumulator(cfg)
	if err != nil {
		return nil, err
	}
	for _, b := range sent {
		if _, err := ref.IngestBatch(b.recs); err != nil {
			return nil, fmt.Errorf("reference ingest: %w", err)
		}
	}
	snap, err := ref.Snapshot()
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, checkEstimate(o.out, d, estPath, snap)...)

	out.e2e = e2eMetrics(o, setup, w.rate(),
		w.lat.summarize(), r.lat[estPath].summarize(), r.lat[sumsPath].summarize(), rss)
	fmt.Fprintf(o.out, "client: %.3f CPU s over %.3f s wall (1 writer, 1 reader)\n", w.cpu, w.wall.Seconds())
	if o.trace {
		layers := daemonLayers(after.minus(before))
		tr, err := replayInduced(runID(o), o.dir, sent, warm.sent, cfg, len(r.lat[estPath].ms), len(r.lat[sumsPath].ms),
			int(layerValue(layers, "job.checkpoint.frames")))
		if err != nil {
			return nil, err
		}
		out.layers = ledger(o.out, layers, tr, w.wall.Seconds(), w.cpu)
	}
	return out, nil
}

// crawlStatus is the part of GET …/crawl/status the workload reads.
type crawlStatus struct {
	State   string `json:"state"`
	Walkers []struct {
		Draws int `json:"draws"`
	} `json:"walkers"`
	Result *struct {
		Stopped     string `json:"stopped"`
		Draws       int    `json:"draws"`
		Checkpoints int    `json:"checkpoints"`
	} `json:"result"`
	Error string `json:"error"`
}

// crawlConfig is the crawl every crawl-budget request asks for; the
// reference crawl runs the same configuration in-process.
func crawlConfig(seed uint64, n float64) crawl.Config {
	return crawl.Config{
		Walkers: crawlWalkers, Sampler: crawl.SamplerRW, BurnIn: crawlBurnIn, Seed: mix(seed, 3),
		Star: true, N: n, Size: core.SizeMethodAuto, Engine: crawl.EngineBootstrap, Level: ciLevel,
		MaxDraws: crawlBudget, CheckEvery: crawlCheck,
	}
}

// crawlAccumulator is a fresh accumulator configured like the daemon's
// crawl jobs.
func crawlAccumulator(k int, seed uint64, n float64) (*stream.EpochAccumulator, error) {
	return stream.NewEpochAccumulator(stream.Config{K: k, Star: true, N: n,
		Size: core.SizeMethodAuto, Replicates: uncert.Config{B: crawlBoot, Seed: mix(seed, 4)}}, 0)
}

// referenceCrawl runs the workload's crawl in-process on src.
func referenceCrawl(src graph.Source, seed uint64, n float64) (*crawl.Result, error) {
	acc, err := crawlAccumulator(src.NumCategories(), seed, n)
	if err != nil {
		return nil, err
	}
	c, err := crawl.Start(src, acc, crawlConfig(seed, n))
	if err != nil {
		return nil, err
	}
	return c.Wait()
}

// runCrawlBudget is the crawl-budget workload: the daemon crawls its own
// generated paper graph. Each crawl runs in a fresh epoch-merged job with
// bootstrap replicates and stops on its draw budget; the generator polls
// its status until done, reads the finished job, and deletes it. Crawls
// repeat until the run's seconds have passed.
func runCrawlBudget(o *options) (*outcome, error) {
	graphSeed := mix(o.seed, 1)
	g, err := paperGraph(graphSeed)
	if err != nil {
		return nil, err
	}
	n := float64(g.NumNodes())
	ref, err := referenceCrawl(g, o.seed, n)
	if err != nil {
		return nil, fmt.Errorf("reference crawl: %w", err)
	}
	cfg := crawlConfig(o.seed, n)
	req := map[string]any{"walkers": cfg.Walkers, "sampler": cfg.Sampler, "seed": cfg.Seed, "burn_in": cfg.BurnIn,
		"check_every": cfg.CheckEvery, "max_draws": cfg.MaxDraws, "engine": string(cfg.Engine), "level": cfg.Level}
	jobSpec := func(i int) map[string]any {
		return map[string]any{"name": fmt.Sprintf("%s-%d", jobName, i), "shards": 2,
			"bootstrap": crawlBoot, "bootstrap_seed": mix(o.seed, 4)}
	}
	// The daemon's own start-up crawl of its default job is one draw long,
	// so it is over before the first measured crawl starts.
	args := func(int) []string {
		return []string{"-crawl", "-demo-seed", strconv.FormatUint(graphSeed, 10),
			"-crawl-walkers", "1", "-crawl-max-draws", "1", "-crawl-burnin", "0", "-crawl-check", "1"}
	}
	d, setup, err := setupDaemon(o, args, jobSpec(0), 2)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}

	var crawlLat, pollLat, estLat, sumsLat latencies
	out := &outcome{}
	var draws int
	var crawlSec float64
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; time.Since(start) < seconds(o); i++ {
		name := fmt.Sprintf("%s-%d", jobName, i)
		if i > 0 {
			out.attempted++
			if err := d.doJSON("POST", "/jobs", jobSpec(i), http.StatusCreated, nil); err != nil {
				return nil, err
			}
		}
		out.attempted++
		t0 := time.Now()
		if err := d.doJSON("POST", "/jobs/"+name+"/crawl", req, http.StatusAccepted, nil); err != nil {
			return nil, err
		}
		var st crawlStatus
		for {
			p0 := time.Now()
			err := d.doJSON("GET", "/jobs/"+name+"/crawl/status", nil, http.StatusOK, &st)
			pollLat.add(time.Since(p0))
			out.attempted++
			if err != nil {
				return nil, err
			}
			if st.State != "running" {
				break
			}
			time.Sleep(time.Millisecond)
		}
		el := time.Since(t0)
		crawlLat.add(el)
		crawlSec += el.Seconds()
		if st.State != "done" || st.Result == nil {
			out.problems = append(out.problems, fmt.Sprintf("crawl %d ended in state %q: %s", i, st.State, st.Error))
			break
		}
		draws += st.Result.Draws
		out.problems = append(out.problems, checkDraws(i, &st, ref)...)
		estPath, sumsPath := "/jobs/"+name+"/estimate?ci=0.95", "/jobs/"+name+"/sums"
		r := readLoop(d, []string{estPath, sumsPath}, nil, crawlReads, 2)
		out.attempted += r.attempted()
		out.failed += r.failed
		reportErrs(o.out, r.firstErr)
		estLat.ms = append(estLat.ms, r.lat[estPath].ms...)
		sumsLat.ms = append(sumsLat.ms, r.lat[sumsPath].ms...)
		w := io.Discard
		if i == 0 {
			w = o.out
		}
		out.problems = append(out.problems, checkEstimate(w, d, estPath, ref.Snapshot)...)
		out.attempted++
		if err := d.doJSON("DELETE", "/jobs/"+name, nil, http.StatusOK, nil); err != nil {
			return nil, err
		}
	}
	cpu := cpuSeconds() - cpu0
	wall := time.Since(start).Seconds()
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "inputs: %d crawls of %d draws (%d walkers, check_every %d, bootstrap %d), %d draws total\n",
		len(crawlLat.ms), crawlBudget, crawlWalkers, crawlCheck, crawlBoot, draws)
	fmt.Fprintf(o.out, "inputs: reference crawl: %d distinct nodes, re-draw share %.4f, %d checkpoints\n",
		ref.Snapshot.Distinct, 1-float64(ref.Snapshot.Distinct)/float64(ref.Draws), ref.Checkpoints)
	fmt.Fprintf(o.out, "status polls: %v\n", pollLat.summarize())
	out.e2e = e2eMetrics(o, setup, float64(draws)/crawlSec, crawlLat.summarize(), estLat.summarize(), sumsLat.summarize(), rss)
	fmt.Fprintf(o.out, "client: %.3f CPU s over %.3f s wall\n", cpu, wall)
	if o.trace {
		tr, err := replayCrawl(runID(o), g, o.seed, n, len(crawlLat.ms))
		if err != nil {
			return nil, err
		}
		out.layers = ledger(o.out, daemonLayers(after.minus(before)), tr, wall, cpu)
	}
	return out, nil
}

// checkDraws requires the crawl's total and per-walker draws and its
// checkpoint count to equal those of the reference crawl exactly.
func checkDraws(i int, st *crawlStatus, ref *crawl.Result) []string {
	var p []string
	if st.Result.Draws != crawlBudget || st.Result.Stopped != string(crawl.ReasonBudget) {
		p = append(p, fmt.Sprintf("crawl %d: %d draws stopped by %q, want %d by budget", i, st.Result.Draws, st.Result.Stopped, crawlBudget))
	}
	if len(st.Walkers) != len(ref.Walkers) {
		return append(p, fmt.Sprintf("crawl %d: %d walkers, want %d", i, len(st.Walkers), len(ref.Walkers)))
	}
	for k, w := range st.Walkers {
		if w.Draws != ref.Walkers[k].Draws {
			p = append(p, fmt.Sprintf("crawl %d: walker %d drew %d, want %d", i, k, w.Draws, ref.Walkers[k].Draws))
		}
	}
	if st.Result.Checkpoints != ref.Checkpoints {
		p = append(p, fmt.Sprintf("crawl %d: %d checkpoints, want %d", i, st.Result.Checkpoints, ref.Checkpoints))
	}
	return p
}

// runID names a run in its span file.
func runID(o *options) string { return fmt.Sprintf("%s-seed%d", o.workload, o.seed) }

func seconds(o *options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func reportErrs(w io.Writer, errs ...error) {
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(w, "first request error:", err)
		}
	}
}
