// Command topoestd is the serving daemon of the streaming-estimation
// subsystem: it keeps an internal/stream accumulator behind an HTTP API so
// that crawlers can push node observations as they are collected and
// consumers can read the live category-graph estimate at any time.
//
// Usage:
//
//	topoestd -k 10 -star -addr :8723
//	topoestd -names US,BR,DE,FR -star=false -N 88850
//	topoestd -demo -demo-draws 20000       # self-feeding smoke/demo mode
//	topoestd -crawl -crawl-walkers 8 -crawl-target 500   # adaptive crawl mode
//	topoestd -graph-file ba1m.pack -crawl -qps 2000 -query-cost 2ms
//	                                       # out-of-core + API-crawl simulation
//
// Flags:
//
//	-addr        listen address (default :8723)
//	-k           number of categories (required unless -names or -demo)
//	-names       comma-separated category names (sets -k)
//	-star        measurement scenario: star (default) or induced (=false).
//	             It also picks the engine: star jobs run the epoch-merged
//	             accumulator, whose writers fill private local epochs and
//	             fold them into the published view exactly at flush
//	             (multi-core ingest); induced jobs run the single-lock one
//	-N           population size |V|; 0 = unknown → relative sizes, with the
//	             §4.3 collision estimate of N reported alongside
//	-size        size estimator: auto|induced|star|star-pooled
//	-bootstrap   maintain this many streaming-bootstrap replicates so that
//	             /estimate can serve confidence intervals (0 = off; 50 for
//	             standard errors, 200 for stable 95% CIs; ingest cost grows
//	             by O(B) per record; k·bootstrap at most 2^20)
//	-bootstrap-seed  seed of the deterministic per-(node, replicate)
//	             Poisson weights (default 1); replicas of the daemon with
//	             the same seed produce identical replicate estimates
//	-demo        generate the paper's §6.2.1 graph and run a fixed-budget
//	             one-walker crawl of it through the adaptive controller
//	             (throttled rounds, so the live estimate is watchable)
//	-demo-draws  total draws the demo crawl ingests (default 20000)
//	-demo-seed   demo graph and crawl seed (default 1)
//	-crawl       adaptive crawl mode: generate the paper graph and crawl it
//	             with internal/crawl until the CI targets are met (or the
//	             budget runs out); further jobs start via POST /crawl
//	-graph-file  crawl a packed out-of-core graph (.pack built by
//	             cmd/graphpack) instead of generating the paper graph; the
//	             daemon pages it through an LRU block cache, so the graph
//	             may be far larger than RAM (crawl/demo modes)
//	-qps         wrap the crawl backend in a rate-limited API simulation:
//	             global neighbor-query budget in queries/second (0 = off)
//	-query-cost  per-neighbor-query latency of the simulation (e.g. 5ms)
//	-crawl-walkers       concurrent walkers (default 4, at most 1024)
//	-crawl-sampler       RW | MHRW | S-WRW (default RW)
//	-crawl-engine        stopping CI engine: bootstrap | replication
//	-crawl-target        category-size CI half-width stop threshold (0=off)
//	-crawl-within-target within-weight CI half-width threshold (0=off)
//	-crawl-cats          category indices the targets apply to (empty=all)
//	-crawl-level         stopping CI confidence level (default 0.95)
//	-crawl-max-draws     hard draw budget (default 200000)
//	-crawl-min-draws     no target-stop before this many draws
//	-crawl-check         checkpoint cadence in draws (default 2000)
//	-crawl-burnin        per-walker burn-in steps (default 1000)
//	-crawl-seed          master walker seed (default 1)
//	-checkpoint-dir      append durable checkpoints of every job's resumable
//	             state to <dir>/<job>.ckpt and, on restart with the same
//	             directory, resume each job exactly where its last intact
//	             frame left it — generation, estimates and bootstrap
//	             replicates match an uninterrupted run to ≤ 1e-9. A frame
//	             torn by a crash mid-append is detected by checksum and
//	             discarded; the file is truncated back to its valid prefix
//	-checkpoint-interval periodic checkpoint cadence (default 30s; frames
//	             are skipped while a job's state has not advanced). A final
//	             checkpoint is always written on graceful shutdown
//	-checkpoint-max-frames compact a job's checkpoint file down to its
//	             newest frame (atomically: temp file + rename) once it
//	             holds more than this many frames, bounding the file at
//	             max-frames+1 frames instead of growing without limit
//	             (default 0 = never compact)
//	-restore-jobs        at boot, restore every named job that left a
//	             checkpoint file in -checkpoint-dir — no POST /jobs
//	             re-creation needed after a crash or restart; each job's
//	             spec is recovered from its newest intact frame
//	-pprof       expose net/http/pprof under /debug/pprof/ (opt-in)
//	-log-format  structured log format: text (default) or json
//	-log-level   minimum log level: debug|info|warn|error (default info)
//
// Endpoints:
//
// The daemon is multi-tenant: every estimation stream is a named job with
// its own accumulator, crawl slot and checkpoint file. The un-prefixed
// routes below alias the "default" job (created at startup from the flags),
// so a single-tenant deployment uses the daemon exactly as before. Further
// jobs are managed over HTTP:
//
//	POST   /jobs             create a job. Body: a job.Spec decoded onto
//	                         the daemon's flag defaults, {"name":"eu-crawl"}
//	                         plus optional overrides — "k", "names", "star",
//	                         "n", "size", "bootstrap", "bootstrap_seed";
//	                         an explicit "k" drops the daemon's category
//	                         names ("shards" is accepted and ignored). With
//	                         -checkpoint-dir, a job whose checkpoint file
//	                         already exists resumes from it (the persisted
//	                         identity — k, star, bootstrap — must match:
//	                         mismatch is a 409). 201 on success, 400 for
//	                         an invalid spec (k·bootstrap above 2^20
//	                         included), 409 when the name is taken
//	GET    /jobs             list jobs with stream position and crawl state
//	DELETE /jobs/{job}       delete a job and its checkpoint file — the
//	                         stream is discarded durably. 400 for "default",
//	                         409 while the job's crawl is running
//	     * /jobs/{job}/...   every per-stream route below, scoped to the
//	                         job: ingest, estimate, categorygraph.tsv, sums,
//	                         crawl, crawl/status
//
//	POST /ingest             body: one NodeObservation JSON object, or an
//	                         array of them; returns {"ingested":…,"draws":…}.
//	                         With Content-Type application/x-topoest-records
//	                         the body is instead one TOPOREC1 binary batch
//	                         (internal/wire) — same responses, same 422
//	                         valid-prefix retry contract, decoded without
//	                         per-record allocation
//	GET  /estimate           live estimate: sizes, weights, within-category
//	                         densities, population estimate, convergence;
//	                         with -bootstrap, every entry also carries a
//	                         percentile confidence interval ("ci":[lo,hi])
//	                         at the level of the ?ci= query parameter
//	                         (default 0.95) — ?ci= without -bootstrap is a
//	                         400
//	GET  /categorygraph.tsv  the estimate as a category-graph TSV (the same
//	                         format cmd/topoest emits)
//	GET  /healthz            liveness plus build/workload context: status,
//	                         draws, distinct, accumulator mode, uptime, Go
//	                         version, goroutine count, build info, the
//	                         cumulative ingest/crawl counters, and a "jobs"
//	                         section with each job's stream position, crawl
//	                         state and last checkpoint
//	GET  /metrics            Prometheus text exposition of every metric in
//	                         the process: ingest, snapshot, crawl, backend
//	                         cache and HTTP-surface instrumentation
//	POST /crawl              start an adaptive crawl against the generated
//	                         graph, streaming into the job's accumulator
//	                         (crawl/demo mode only). One crawl runs at a
//	                         time per job — starting a second in the same
//	                         job is a 409 — while crawls in different jobs
//	                         run concurrently. The JSON body is a
//	                         crawl.Config decoded onto the -crawl-* defaults:
//	                         {"walkers":8,"sampler":"RW","engine":"bootstrap",
//	                         "size_target":500,"size_cats":[0,1],
//	                         "within_target":0.05,"within_cats":[2],
//	                         "level":0.95,"max_draws":200000,
//	                         "min_draws":0,"check_every":2000,
//	                         "burn_in":1000,"thin":1,"seed":7}
//	                         The crawl runs under the job's scenario and
//	                         size method and the daemon's N (a job with its
//	                         own "n" is a 422). Also 422: walkers above
//	                         crawl.MaxWalkers, and a target over an empty
//	                         category list
//	GET  /crawl/status       live job state: {"state":"none|running|done|
//	                         failed","draws":…,"max_draws":…,
//	                         "queries":… (present when -qps/-query-cost
//	                         meter the backend; also echoed in "result"),
//	                         "walkers":[{"walker":0,"draws":…,"node":…}],
//	                         "checkpoint":{"seq":…,"draws":…,
//	                         "size_hw":[…],"within_hw":[…],
//	                         "targets_met":…},"result":{"stopped":
//	                         "target|budget","draws":…,"checkpoints":…}}
//	                         — half-width entries are null until the engine
//	                         resolves the estimand
//
// The observation wire format is sample.NodeObservation: under star
// sampling {"node":7,"weight":3,"cat":1,"deg":5,"nbr_cat":[0,1],
// "nbr_cnt":[2,3]}, under induced sampling {"node":7,"cat":1,
// "peers":[3,4]} where peers lists previously ingested neighbors (each edge
// of the growing induced subgraph reported exactly once). Weight 0 or
// absent means 1 on a node's first record and inherits the node's recorded
// weight on re-draws (negative or NaN weights are rejected); cat -1 means
// uncategorized. Star neighbor data may ride on every record of a node
// (concurrent crawlers) — the first to arrive is recorded and identical
// re-deliveries pass, but a record whose cat, explicit weight, or star
// data contradicts the node's first observation is rejected. A star job's
// POST /ingest validates and accumulates each batch in a writer-private
// local epoch in record order and flushes the epoch into the published
// estimate before responding, so an acknowledged record is visible to the
// next /estimate under either scenario.
//
// # Ingest error semantics and the retry-safe protocol
//
// Records of one POST body are applied strictly in order, and application
// stops at the first invalid record — the valid prefix STAYS APPLIED. The
// daemon reports how far it got: every record-level rejection (HTTP 422)
// has the JSON body
//
//	{"error":"…", "ingested":N, "total":M, "index":I}
//
// where "ingested" is the number of leading records durably applied and
// "index" is the position of the offending record. The two differ only for
// pre-validation failures (a record missing "cat"), which are detected
// before anything is applied: there "ingested" is 0 while "index" points
// at the offender. Malformed JSON is rejected whole with HTTP 400 and body
// {"error":"…"} — nothing was applied and no record indices exist. A body
// over the 64 MiB ingest cap is rejected whole with HTTP 413, naming the
// cap.
//
// A retrying client MUST NOT resend the whole batch after a 422 — that
// would double-ingest the applied prefix and silently skew the estimate.
// The retry-safe protocol is: drop the first "ingested" records, fix or
// discard the record at index "index", and resend the rest. Idempotent
// replay is not provided by the server; exactly-once ingestion is the
// client's contract to keep.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/catgraph"
	"repro/internal/crawl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

// cli holds the parsed command line. spec and crawl are the templates the
// estimation and -crawl-* flags bind to; POST /jobs and POST /crawl decode
// their bodies onto copies of the same two values, so one validation per
// type serves all three surfaces.
type cli struct {
	addr  string
	spec  job.Spec
	names string // -names, resolved into spec.Names at boot

	demo      bool
	demoDraws int
	demoSeed  uint64

	graphFile string
	qps       float64
	queryCost time.Duration

	crawlMode bool
	crawl     crawl.Config
	crawlCats string // -crawl-cats, resolved into crawl's target lists at boot

	mergeFrom     string
	mergeInterval time.Duration
	mergeTimeout  time.Duration
	mergeMaxStale time.Duration

	checkpointDir      string
	checkpointInterval time.Duration
	checkpointMaxF     int
	restoreJobs        bool

	pprofOn   bool
	logFormat string
	logLevel  string
}

// newCLI registers every flag on fs, bound to the returned command line:
// main passes flag.CommandLine, and tests parse argv through a fresh set.
func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{spec: job.Spec{Name: job.DefaultName}}
	s, cr := &c.spec, &c.crawl
	fs.StringVar(&c.addr, "addr", ":8723", "listen address")
	fs.IntVar(&s.K, "k", 0, "number of categories")
	fs.StringVar(&c.names, "names", "", "comma-separated category names (sets -k)")
	fs.BoolVar(&s.Star, "star", true, "star scenario (false = induced subgraph)")
	fs.Float64Var(&s.N, "N", 0, "population size |V| (0 = unknown, relative sizes)")
	fs.StringVar(&s.Size, "size", "auto", "size estimator: auto|induced|star|star-pooled")
	fs.IntVar(&s.Bootstrap, "bootstrap", 0, "streaming-bootstrap replicates for /estimate?ci= intervals (0 = off)")
	fs.Uint64Var(&s.BootstrapSeed, "bootstrap-seed", 1, "seed of the deterministic bootstrap weights")
	fs.BoolVar(&c.demo, "demo", false, "self-feed a fixed-budget random-walk crawl of the §6.2.1 paper graph")
	fs.IntVar(&c.demoDraws, "demo-draws", 20000, "demo: total draws to ingest")
	fs.Uint64Var(&c.demoSeed, "demo-seed", 1, "demo: graph and crawl seed")
	fs.StringVar(&c.graphFile, "graph-file", "", "crawl a packed out-of-core graph (.pack from cmd/graphpack) instead of generating the paper graph")
	fs.Float64Var(&c.qps, "qps", 0, "simulate a remote API: global neighbor-query budget in queries/second (0 = unlimited)")
	fs.DurationVar(&c.queryCost, "query-cost", 0, "simulate a remote API: per-neighbor-query latency (e.g. 5ms; 0 = none)")
	fs.BoolVar(&c.crawlMode, "crawl", false, "adaptive crawl mode: generate the paper graph and crawl it until the CI targets are met")
	fs.IntVar(&cr.Walkers, "crawl-walkers", 4, "crawl: concurrent walkers")
	fs.StringVar(&cr.Sampler, "crawl-sampler", "RW", "crawl: sampler kernel (RW|MHRW|S-WRW)")
	fs.StringVar((*string)(&cr.Engine), "crawl-engine", "bootstrap", "crawl: stopping CI engine (bootstrap|replication)")
	fs.Float64Var(&cr.SizeTarget, "crawl-target", 0, "crawl: stop when every targeted category-size CI half-width ≤ this (0 = untargeted)")
	fs.Float64Var(&cr.WithinTarget, "crawl-within-target", 0, "crawl: within-weight CI half-width target (0 = untargeted)")
	fs.StringVar(&c.crawlCats, "crawl-cats", "", "crawl: comma-separated category indices the targets apply to (empty = all)")
	fs.Float64Var(&cr.Level, "crawl-level", 0.95, "crawl: confidence level of the stopping CIs")
	fs.IntVar(&cr.MaxDraws, "crawl-max-draws", 200000, "crawl: hard draw budget")
	fs.IntVar(&cr.MinDraws, "crawl-min-draws", 0, "crawl: never target-stop before this many draws")
	fs.IntVar(&cr.CheckEvery, "crawl-check", 2000, "crawl: checkpoint cadence in draws")
	fs.IntVar(&cr.BurnIn, "crawl-burnin", 1000, "crawl: per-walker burn-in steps")
	fs.Uint64Var(&cr.Seed, "crawl-seed", 1, "crawl: master walker seed")
	fs.StringVar(&c.mergeFrom, "merge-from", "", "coordinator mode: comma-separated worker base URLs to poll for /sums and merge (read-only daemon)")
	fs.DurationVar(&c.mergeInterval, "merge-interval", 2*time.Second, "coordinator: poll period")
	fs.DurationVar(&c.mergeTimeout, "merge-timeout", 2*time.Second, "coordinator: per-worker pull timeout")
	fs.DurationVar(&c.mergeMaxStale, "merge-max-stale", time.Minute, "coordinator: drop a dead worker's last-good state from the pool after this age")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "append durable per-job checkpoints to <dir>/<job>.ckpt and resume from them on restart (empty = off)")
	fs.DurationVar(&c.checkpointInterval, "checkpoint-interval", 30*time.Second, "periodic checkpoint cadence (a final checkpoint is always written on graceful shutdown)")
	fs.IntVar(&c.checkpointMaxF, "checkpoint-max-frames", 0, "compact a job's checkpoint file down to its newest frame once it holds more than this many frames (0 = never compact)")
	fs.BoolVar(&c.restoreJobs, "restore-jobs", false, "restore every named job with a checkpoint file in -checkpoint-dir at boot, without requiring POST /jobs re-creation")
	fs.BoolVar(&c.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in: profiling reveals internals)")
	fs.StringVar(&c.logFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&c.logLevel, "log-level", "info", "minimum log level: debug|info|warn|error")
	return c
}

func main() {
	c := newCLI(flag.CommandLine)
	flag.Parse()
	if err := c.run(); err != nil {
		fmt.Fprintln(os.Stderr, "topoestd:", err)
		os.Exit(1)
	}
}

func (c *cli) run() error {
	logger, err := newLogger(c.logFormat, c.logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	if err := c.validate(); err != nil {
		return err
	}
	boot := c.jobServer
	if c.mergeFrom != "" {
		boot = c.coordinator
	}
	srv, attrs, err := boot()
	if err != nil {
		return err
	}
	if c.pprofOn {
		registerPprof(srv.mux)
	}
	slog.Info("topoestd serving", append([]any{"addr", c.addr, "scenario", scenarioName(c.spec.Star)}, attrs...)...)
	return listenAndServe(c.addr, srv, srv.shutdown)
}

// validate rejects the flag combinations no mode can serve, before
// anything is built. Single-value checks live with the value's type:
// job.Spec validates the estimation flags, crawl.Config the -crawl-* ones.
func (c *cli) validate() error {
	switch {
	case c.qps < 0:
		return fmt.Errorf("need -qps ≥ 0, got %g", c.qps)
	case c.queryCost < 0:
		return fmt.Errorf("need -query-cost ≥ 0, got %v", c.queryCost)
	case c.checkpointInterval <= 0:
		return fmt.Errorf("need -checkpoint-interval > 0, got %v", c.checkpointInterval)
	case c.checkpointMaxF < 0:
		return fmt.Errorf("need -checkpoint-max-frames ≥ 0, got %d", c.checkpointMaxF)
	case c.checkpointDir == "" && (c.restoreJobs || c.checkpointMaxF > 0):
		return fmt.Errorf("-restore-jobs and -checkpoint-max-frames operate on checkpoint files; combine them with -checkpoint-dir")
	case c.mergeFrom == "" && !c.demo && !c.crawlMode && (c.graphFile != "" || c.qps > 0 || c.queryCost > 0):
		return fmt.Errorf("-graph-file, -qps and -query-cost configure the crawl backend; combine them with -crawl or -demo")
	}
	if c.mergeFrom == "" {
		return nil
	}
	switch {
	case c.demo || c.crawlMode:
		return fmt.Errorf("-merge-from is a read-only coordinator; it cannot be combined with -demo or -crawl")
	case c.spec.Bootstrap != 0:
		return fmt.Errorf("-bootstrap has no effect on a coordinator: it adopts the workers' bootstrap configuration (drop the flag)")
	case c.checkpointDir != "":
		return fmt.Errorf("-checkpoint-dir has no effect on a coordinator: its durable state lives on the workers it polls")
	case c.mergeInterval <= 0 || c.mergeTimeout <= 0 || c.mergeMaxStale <= 0:
		return fmt.Errorf("need -merge-interval, -merge-timeout and -merge-max-stale > 0")
	}
	return nil
}

// jobServer boots the serving daemon: a job registry whose default job is
// built from the flags, and optionally restored named jobs. Crawl mode
// (-crawl, or its -demo preset) adds three things only: the crawl backend
// fixes K, the category names and N; a targeted crawl on the bootstrap
// engine defaults to 100 replicates when -bootstrap is off; and the default
// job starts crawling before the daemon serves. It returns the server and
// the mode's startup log attributes.
func (c *cli) jobServer() (*server, []any, error) {
	spec := c.spec
	var (
		src    graph.Source
		jobCfg crawl.Config
		err    error
	)
	if c.demo || c.crawlMode {
		if src, spec.Names, err = c.crawlBackend(); err != nil {
			return nil, nil, err
		}
		spec.K, spec.N = src.NumCategories(), float64(src.NumNodes())
		if c.crawl.SizeCats, err = parseCats(c.crawlCats); err != nil {
			return nil, nil, err
		}
		// The -crawl-* config doubles as the defaults of POST /crawl jobs —
		// even under -demo, whose auto-started job uses the throttled
		// fixed-budget demo config instead (an HTTP-started job must not
		// inherit the demo pacing). Both carry the daemon's N: the stopping
		// engines compare targets in node units, and crawl.Start rejects an
		// accumulator on another scale.
		c.crawl.WithinCats = c.crawl.SizeCats
		c.crawl.N, c.crawl.Logger = spec.N, slog.Default()
		jobCfg = c.crawl
		if !c.crawlMode {
			jobCfg = c.demoCrawlConfig()
		}
		targeted := jobCfg.SizeTarget > 0 || jobCfg.WithinTarget > 0
		if targeted && jobCfg.Engine == crawl.EngineBootstrap && spec.Bootstrap == 0 {
			// The bootstrap stopping engine reads CI widths off the
			// daemon's accumulator; a targeted crawl without -bootstrap
			// defaults to 100 replicates rather than failing startup.
			spec.Bootstrap = 100
			slog.Info("crawl targets set without -bootstrap; defaulting replicates", "bootstrap_b", spec.Bootstrap)
		}
	} else if spec.K, spec.Names, err = c.categories(); err != nil {
		return nil, nil, err
	}
	reg, err := job.NewRegistry(c.checkpointDir, c.checkpointInterval, slog.Default())
	if err != nil {
		return nil, nil, err
	}
	reg.SetMaxFrames(c.checkpointMaxF)
	def, err := reg.Create(spec)
	if err != nil {
		return nil, nil, err
	}
	if c.restoreJobs {
		restored, err := reg.RestoreAll()
		if err != nil {
			return nil, nil, err
		}
		slog.Info("named jobs restored from checkpoints", "count", len(restored))
	}
	srv := newServerWithJobs(reg, def)
	srv.crawlSource, srv.crawlDefaults = src, c.crawl
	attrs := []any{"k", spec.K, "ingest", ingestMode(def.Acc()),
		"bootstrap_b", spec.Bootstrap, "checkpoint_dir", c.checkpointDir, "gen", def.Acc().Gen()}
	if src != nil {
		cj, err := def.StartCrawl(src, jobCfg)
		if errors.Is(err, sample.ErrNoEdges) {
			return nil, nil, fmt.Errorf("crawl backend is not walkable (every reachable start is edgeless): %w", err)
		}
		if err != nil {
			return nil, nil, err
		}
		go func() {
			if _, err := cj.Wait(); err != nil {
				slog.Error("crawl failed", "err", err)
			}
		}()
		attrs = append(attrs, "n", src.NumNodes(), "backend", c.backendName(),
			"walkers", max(jobCfg.Walkers, 1), "sampler", jobCfg.Sampler, "max_draws", jobCfg.MaxDraws)
	}
	reg.Start()
	return srv, attrs, nil
}

// categories resolves -k / -names into the partition the daemon serves.
func (c *cli) categories() (int, []string, error) {
	k := c.spec.K
	var names []string
	if c.names != "" {
		names = strings.Split(c.names, ",")
		k = len(names)
	}
	if k < 1 {
		return 0, nil, fmt.Errorf("need -k or -names (got %d categories)", k)
	}
	return k, names, nil
}

// coordinator boots the distributed tier's coordinator: a read-only daemon
// whose accumulator is a stream.Pool rebuilt from the /sums exports of the
// -merge-from workers. Every serving endpoint (/estimate with exact
// merged-bootstrap CIs, /categorygraph.tsv, /healthz, /metrics, /sums for a
// higher coordinator tier) works unchanged over the pool; /ingest answers
// 403.
func (c *cli) coordinator() (*server, []any, error) {
	spec := c.spec
	var err error
	if spec.K, spec.Names, err = c.categories(); err != nil {
		return nil, nil, err
	}
	cfg, err := spec.StreamConfig()
	if err != nil {
		return nil, nil, err
	}
	pool, err := stream.NewPool(cfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := newMerger(pool, strings.Split(c.mergeFrom, ","), c.mergeInterval, c.mergeTimeout, c.mergeMaxStale)
	if err != nil {
		return nil, nil, err
	}
	srv := newServer(pool, spec.Names)
	srv.merger = m
	go m.run()
	urls := make([]string, len(m.workers))
	for i, w := range m.workers {
		urls[i] = w.url
	}
	return srv, []any{"k", spec.K, "ingest", ingestMode(pool), "workers", urls,
		"interval", c.mergeInterval, "timeout", c.mergeTimeout, "max_stale", c.mergeMaxStale}, nil
}

// listenAndServe wraps the handler in an http.Server with read and write
// timeouts, so a slow or stalled client cannot pin a connection (and its
// goroutine) forever — the bare http.ListenAndServe has none. On SIGTERM or
// SIGINT it shuts down gracefully: the listener closes (no new ingest), every
// in-flight request finishes (bounded by 10s), and then onShutdown runs —
// which is where the server writes its final checkpoints before the process
// exits, so no acknowledged record dies with the process.
func listenAndServe(addr string, h http.Handler, onShutdown func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute, // ingest bodies are ≤ 64 MiB
		WriteTimeout:      time.Minute,     // responses are O(K²) small
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of re-queuing
		slog.Info("signal received; draining connections")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(sctx)
		if onShutdown != nil {
			onShutdown()
		}
		slog.Info("shutdown complete")
		return err
	}
}

// crawlBackend resolves the graph the crawl walks: the packed out-of-core
// file of -graph-file, or the generated paper graph — optionally wrapped in
// the rate-limited API-crawl simulation of -qps / -query-cost.
func (c *cli) crawlBackend() (graph.Source, []string, error) {
	var src graph.Source
	if c.graphFile != "" {
		p, err := graph.OpenPackFile(c.graphFile, graph.PackOptions{})
		if err != nil {
			return nil, nil, err
		}
		if p.NumCategories() == 0 {
			return nil, nil, fmt.Errorf("%s carries no categories; crawling needs a categorized graph (pack with -cats or -gen-cats)", c.graphFile)
		}
		src = p
	} else {
		g, err := gen.Paper(randx.New(c.demoSeed), gen.PaperConfig{
			Sizes:   []int64{60, 80, 100, 200, 500, 800, 1000, 2000, 3000, 5000},
			K:       20,
			Alpha:   0.5,
			Connect: true,
		})
		if err != nil {
			return nil, nil, err
		}
		src = g
	}
	var names []string
	if st, ok := graph.StatsOf(src); ok {
		names = st.CategoryNames()
	}
	if c.qps > 0 || c.queryCost > 0 {
		src = graph.NewRateLimited(src, graph.RateLimit{QPS: c.qps, PerQuery: c.queryCost})
	}
	return src, names, nil
}

// backendName describes the crawl backend for the startup log line.
func (c *cli) backendName() string {
	name := "paper graph"
	if c.graphFile != "" {
		name = "packed graph " + c.graphFile
	}
	if c.qps > 0 || c.queryCost > 0 {
		name += " (rate-limited)"
	}
	return name
}

// demoCrawlConfig is the plain -demo job: the fixed-budget special case,
// throttled so the live estimate is watchable while it converges.
func (c *cli) demoCrawlConfig() crawl.Config {
	return crawl.Config{
		Walkers:    1,
		Sampler:    crawl.SamplerRW,
		BurnIn:     1000,
		Seed:       c.demoSeed,
		N:          c.crawl.N,
		MaxDraws:   c.demoDraws,
		CheckEvery: 200,
		RoundDelay: 50 * time.Millisecond,
		Logger:     c.crawl.Logger,
	}
}

// parseCats parses the -crawl-cats list ("" = nil = all categories).
func parseCats(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var cats []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -crawl-cats entry %q: %v", f, err)
		}
		cats = append(cats, n)
	}
	return cats, nil
}

func scenarioName(star bool) string {
	if star {
		return "star"
	}
	return "induced"
}

// server is the HTTP facade over the daemon's job registry. Every
// estimation stream is a *job.Job — accumulator, snapshot cache, crawl slot
// and checkpoint state live there — and every per-stream route exists twice:
// under /jobs/{job}/... for the named job and un-prefixed as an alias for
// the "default" job, so single-tenant clients never see the tenant layer.
type server struct {
	mux   *http.ServeMux
	start time.Time

	// jobs is the tenant registry; def is the "default" job the legacy
	// un-prefixed routes serve; template seeds POST /jobs specs — a new job
	// inherits the daemon's flag-derived configuration except where the
	// request body overrides it.
	jobs     *job.Registry
	def      *job.Job
	template job.Spec

	// crawlSource is the graph backend of crawl/demo mode — generated,
	// packed out-of-core, or rate-limited (nil when the daemon only serves
	// externally pushed records); crawlDefaults seeds the configuration of
	// POST /crawl jobs. Both are daemon-level: every job crawls the same
	// backend, each into its own accumulator.
	crawlSource   graph.Source
	crawlDefaults crawl.Config

	// merger is non-nil on a -merge-from coordinator; /healthz then carries
	// its per-worker status and shutdown stops its poll loop.
	merger *merger
}

// jobHandler is a per-stream handler: the routing layer resolves which job
// the request addresses and the handler works purely against it.
type jobHandler func(w http.ResponseWriter, r *http.Request, j *job.Job)

// newServer builds a server over a lone accumulator: a registry without a
// checkpoint directory whose default job adopts acc. The daemon's
// single-tenant construction path and every pre-existing test go through
// here; durable multi-tenant deployments use newServerWithJobs directly.
func newServer(acc stream.Ingester, names []string) *server {
	reg, err := job.NewRegistry("", 0, nil)
	if err != nil {
		panic(err) // unreachable: no directory to create
	}
	def, err := reg.Adopt(adoptSpec(acc), acc, names)
	if err != nil {
		panic(err) // unreachable: fresh registry, constant valid name
	}
	return newServerWithJobs(reg, def)
}

// adoptSpec reverse-engineers a job spec from a pre-built accumulator.
func adoptSpec(acc stream.Ingester) job.Spec {
	cfg := acc.Config()
	return job.Spec{
		Name: job.DefaultName, K: cfg.K, Star: cfg.Star, N: cfg.N, Size: cfg.Size.String(),
		Bootstrap: cfg.Replicates.B, BootstrapSeed: cfg.Replicates.Seed,
	}
}

// newServerWithJobs builds the HTTP facade over a populated registry whose
// default job is def. Every per-stream route is registered twice: once
// un-prefixed, bound to the default job, and once under /jobs/{job}/.
func newServerWithJobs(reg *job.Registry, def *job.Job) *server {
	s := &server{mux: http.NewServeMux(), start: time.Now(), jobs: reg, def: def, template: def.Spec()}
	routes := []struct {
		method, path string
		h            jobHandler
	}{
		{"POST", "/ingest", s.handleIngest},
		{"GET", "/estimate", s.handleEstimate},
		{"GET", "/categorygraph.tsv", s.handleTSV},
		{"GET", "/sums", s.handleSums},
		{"POST", "/crawl", s.handleCrawlStart},
		{"GET", "/crawl/status", s.handleCrawlStatus},
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.method+" "+rt.path, instrument(rt.path, s.forDefault(rt.h)))
		s.mux.HandleFunc(rt.method+" /jobs/{job}"+rt.path, instrument("/jobs/{job}"+rt.path, s.forJob(rt.h)))
	}
	s.mux.HandleFunc("POST /jobs", instrument("/jobs", s.handleJobCreate))
	s.mux.HandleFunc("GET /jobs", instrument("/jobs", s.handleJobList))
	s.mux.HandleFunc("DELETE /jobs/{job}", instrument("/jobs/{job}", s.handleJobDelete))
	s.mux.HandleFunc("GET /healthz", instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", obs.Handler(obs.Default))
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// forDefault binds a per-stream handler to the default job — the legacy
// un-prefixed routes.
func (s *server) forDefault(h jobHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(w, r, s.def) }
}

// forJob resolves the {job} path segment against the registry.
func (s *server) forJob(h jobHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := s.jobs.Get(r.PathValue("job"))
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		h(w, r, j)
	}
}

// ingestMode names the accumulator's concurrency design for logs and
// /healthz.
func ingestMode(acc stream.Ingester) string {
	switch acc.(type) {
	case *stream.EpochAccumulator:
		return "epoch-merged"
	case *stream.Pool:
		return "merge-pool"
	}
	return "single-lock"
}

// shutdown runs after the HTTP server has stopped accepting requests and
// drained the in-flight ones: stop the merge poll loop if this daemon is a
// coordinator, and write one final checkpoint per job (registry shutdown)
// so everything acknowledged is durable before the process exits.
func (s *server) shutdown() {
	if s.merger != nil {
		s.merger.stopWait()
	}
	if err := s.jobs.Shutdown(); err != nil {
		slog.Error("final checkpoint failed", "err", err)
	}
}

// handleSums serves the accumulator's encoded sufficient statistics — the
// worker half of the distributed tier. The response is the internal/wire
// binary format (gzip-compressed when the client accepts it); the codec
// version header lets a coordinator reject a newer format before parsing.
// It works over any Ingester, so a coordinator also serves /sums and tiers
// stack. Both encodings are built once per generation (job.Job.Sums).
func (s *server) handleSums(w http.ResponseWriter, r *http.Request, j *job.Job) {
	gz := strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
	body, hit, err := j.Sums(gz)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	noteRead("sums", hit)
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set(wire.VersionHeader, strconv.Itoa(wire.Version))
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// wireRecord is the ingest wire form of sample.NodeObservation. Cat is a
// pointer so an omitted "cat" key is caught at the API boundary instead of
// silently decoding to category 0 and permanently skewing the estimate.
type wireRecord struct {
	Node   int32     `json:"node"`
	Weight float64   `json:"weight"`
	Cat    *int32    `json:"cat"`
	Deg    float64   `json:"deg"`
	NbrCat []int32   `json:"nbr_cat"`
	NbrCnt []float64 `json:"nbr_cnt"`
	Peers  []int32   `json:"peers"`
}

// maxIngestBody caps one POST /ingest body; a larger body is a 413.
const maxIngestBody = 64 << 20

// maxPooledBody is the largest body buffer returned to ingestBodyPool, so
// one oversized request cannot pin its buffer for the process lifetime.
const maxPooledBody = 1 << 20

// ingestBodyPool recycles request-body buffers across ingest requests.
// Nothing reads a body past its request: JSON decoding copies, TOPOREC1
// records decode into the iterator's scratch, and a pooled iterator is
// Reset onto its next body before use.
var ingestBodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleIngest is POST /ingest in either encoding. Both share one error
// contract: a body that does not parse is a 400 with nothing applied (a
// TOPOREC1 frame is structurally checked before any record is ingested),
// and a record the stream rejects is a 422 whose "ingested"/"index" count
// leading records durably applied — the index means the same thing in both
// encodings, so a retrying client needs no per-encoding logic.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request, j *job.Job) {
	t0 := time.Now()
	buf := ingestBodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			ingestBodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "ingest body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	body := buf.Bytes()
	var (
		n, total int
		err      error
	)
	if isRecordsContentType(r.Header.Get("Content-Type")) {
		it := recordIterPool.Get().(*wire.RecordIter)
		defer recordIterPool.Put(it)
		if err := it.Reset(body); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		n, err = ingestStream(j, it)
		total = it.Len()
	} else {
		recs, ok := decodeRecords(w, body)
		if !ok {
			return
		}
		n, err = j.Acc().IngestBatch(recs)
		total = len(recs)
	}
	j.NoteIngest(n, len(body), t0)
	switch {
	case errors.Is(err, stream.ErrReadOnly):
		httpError(w, http.StatusForbidden, "this daemon is a merge coordinator; ingest on the workers it polls")
	case err != nil:
		// The first n records stay applied and record n is the offender;
		// the body carries both so a retrying client can resend only the
		// remainder (see package doc).
		ingestError(w, n, total, n, "%v", err)
	default:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"ingested": n, "draws": j.Acc().Draws()})
	}
}

// decodeRecords parses a JSON /ingest body — one record object or an
// array of them — and checks every record names its category. On failure
// it writes the error response (400 for malformed JSON, 422 for a missing
// "cat", with nothing applied) and returns false.
func decodeRecords(w http.ResponseWriter, body []byte) ([]sample.NodeObservation, bool) {
	// Peek at the first non-space byte to accept either one record object
	// or an array of them, with a single parse either way.
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	var wires []wireRecord
	if i < len(body) && body[i] == '[' {
		if err := json.Unmarshal(body, &wires); err != nil {
			httpError(w, http.StatusBadRequest, "bad record array: %v", err)
			return nil, false
		}
	} else {
		var rec wireRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			httpError(w, http.StatusBadRequest, "bad record: %v", err)
			return nil, false
		}
		wires = []wireRecord{rec}
	}
	recs := make([]sample.NodeObservation, len(wires))
	for i, wr := range wires {
		if wr.Cat == nil {
			// Pre-validation failure: nothing was applied, all-or-nothing,
			// but the offender index must still be reported — it is not the
			// applied count here.
			ingestError(w, 0, len(wires), i,
				`record %d (node %d) is missing "cat" (use -1 for uncategorized)`, i, wr.Node)
			return nil, false
		}
		recs[i] = sample.NodeObservation{
			Node: wr.Node, Weight: wr.Weight, Cat: *wr.Cat,
			Deg: wr.Deg, NbrCat: wr.NbrCat, NbrCnt: wr.NbrCnt, Peers: wr.Peers,
		}
	}
	return recs, true
}

// isRecordsContentType reports whether the request negotiated the TOPOREC1
// binary batch encoding (wire.RecordsContentType, parameters ignored).
// Everything else — including an absent header — is treated as JSON, the
// lenient default the daemon always accepted.
func isRecordsContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.RecordsContentType)
}

// recordIterPool recycles binary-batch iterators (and their record-decode
// scratch) across requests, keeping the binary ingest path free of
// per-record allocations.
var recordIterPool = sync.Pool{New: func() any { return new(wire.RecordIter) }}

// ingestStream drains a binary batch straight into the job's stream without
// materializing a record slice: each decoded record aliases the iterator's
// scratch, which every ingest path copies before retaining. Epoch-merged
// jobs ingest through a pooled writer-private local, which PutLocal flushes
// before the response — the valid prefix a 422 acknowledges included — and
// the single-lock accumulator takes records directly.
func ingestStream(j *job.Job, it *wire.RecordIter) (int, error) {
	var rec sample.NodeObservation
	ingest := j.Acc().Ingest
	if l := j.TakeLocal(); l != nil {
		defer j.PutLocal(l)
		ingest = l.Ingest
	}
	for i := 0; it.Next(&rec); i++ {
		if err := ingest(rec); err != nil {
			return i, err
		}
	}
	return it.Len(), nil
}

// ingestError writes the structured /ingest error body: the human-readable
// message plus the machine-readable fields that make retries safe —
// "ingested" leading records are durable, the record at "index" is the
// offender, and only the records from "ingested" onward (minus the fixed or
// dropped offender) may be resent.
func ingestError(w http.ResponseWriter, ingested, total, index int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnprocessableEntity)
	json.NewEncoder(w).Encode(map[string]any{
		"error":    fmt.Sprintf("ingested %d of %d records: %s", ingested, total, fmt.Sprintf(format, args...)),
		"ingested": ingested,
		"total":    total,
		"index":    index,
	})
}

// estimateDoc is the JSON shape of GET /estimate. NaN/Inf cannot travel in
// JSON, so non-finite quantities are omitted (pointer fields stay null).
// The ci fields appear only when the daemon runs with -bootstrap: every
// interval is the [lo, hi] percentile CI of the streaming bootstrap at
// ci_level (the ?ci= query parameter, default 0.95), computed over
// bootstrap_b replicates.
//
// The accumulator publishes one snapshot per ingest generation, and every
// reader at that generation gets it, rendered once per ?ci= level. So seq
// and convergence are per generation: seq numbers the computed snapshots,
// and draws_since and the deltas compare with the previous generation that
// any reader (or crawl checkpoint) estimated. The first read after a crawl
// therefore returns the crawl's last checkpoint snapshot, with its seq and
// its draws_since (one check interval when nothing else read meanwhile).
type estimateDoc struct {
	Seq         int64          `json:"seq"`
	Draws       int            `json:"draws"`
	Distinct    int            `json:"distinct"`
	N           float64        `json:"n"`
	PopEstimate *float64       `json:"pop_estimate,omitempty"`
	PopCI       *[2]float64    `json:"pop_ci,omitempty"`
	SizeMethod  string         `json:"size_method"`
	WeightKind  string         `json:"weight_kind"`
	BootstrapB  int            `json:"bootstrap_b,omitempty"`
	CILevel     *float64       `json:"ci_level,omitempty"`
	Sizes       []sizeEntry    `json:"sizes"`
	Weights     []weightEntry  `json:"weights"`
	Convergence convergenceDoc `json:"convergence"`
}

type sizeEntry struct {
	Cat      int32       `json:"cat"`
	Name     string      `json:"name"`
	Size     float64     `json:"size"`
	CI       *[2]float64 `json:"ci,omitempty"`
	Within   *float64    `json:"within,omitempty"`
	WithinCI *[2]float64 `json:"within_ci,omitempty"`
}

type weightEntry struct {
	A      int32       `json:"a"`
	B      int32       `json:"b"`
	Weight float64     `json:"w"`
	CI     *[2]float64 `json:"ci,omitempty"`
	Cut    float64     `json:"cut"`
}

type convergenceDoc struct {
	DrawsSince  int      `json:"draws_since"`
	SizeDelta   *float64 `json:"size_delta,omitempty"`
	WeightDelta *float64 `json:"weight_delta,omitempty"`
}

func finitePtr(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// finiteIv converts an uncert interval to its wire form, omitting intervals
// with non-finite endpoints (NaN/Inf cannot travel in JSON).
func finiteIv(iv uncert.Interval) *[2]float64 {
	if !iv.Finite() {
		return nil
	}
	return &[2]float64{iv.Lo, iv.Hi}
}

// ciLevel parses the ?ci= query parameter against the daemon's bootstrap
// configuration: (0, false, nil) when intervals are off (no -bootstrap and
// no ?ci=), the level and true when they are on, an error for ?ci= without
// -bootstrap or a level outside (0, 1).
func ciLevel(r *http.Request, j *job.Job) (float64, bool, error) {
	raw := r.URL.Query().Get("ci")
	bootOn := j.Acc().Config().Replicates.Enabled()
	if raw == "" {
		return 0.95, bootOn, nil
	}
	if !bootOn {
		return 0, false, fmt.Errorf("confidence intervals need the daemon started with -bootstrap B")
	}
	level, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(level > 0 && level < 1) {
		return 0, false, fmt.Errorf("ci must be a confidence level in (0,1), got %q", raw)
	}
	return level, true, nil
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request, j *job.Job) {
	level, withCI, err := ciLevel(r, j)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, hit, err := j.Estimate(level, withCI, func(snap *stream.Snapshot, cg *catgraph.Graph) ([]byte, error) {
		return renderEstimate(snap, cg, j.Names(), level, withCI)
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	noteRead("estimate", hit)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// renderEstimate renders a snapshot and its category graph as the JSON body
// of GET /estimate, with intervals at level when withCI is set and the
// snapshot carries replicates.
func renderEstimate(snap *stream.Snapshot, cg *catgraph.Graph, names []string, level float64, withCI bool) ([]byte, error) {
	doc := estimateDoc{
		Seq:         snap.Seq,
		Draws:       snap.Draws,
		Distinct:    snap.Distinct,
		N:           snap.Result.N,
		PopEstimate: finitePtr(snap.PopEstimate),
		SizeMethod:  snap.Result.SizeMethod.String(),
		WeightKind:  snap.Result.WeightKind,
		Convergence: convergenceDoc{
			DrawsSince:  snap.Converge.DrawsSince,
			SizeDelta:   finitePtr(snap.Converge.SizeDelta),
			WeightDelta: finitePtr(snap.Converge.WeightDelta),
		},
	}
	if withCI && snap.Boot != nil {
		doc.BootstrapB = snap.Boot.B
		doc.CILevel = &level
		doc.PopCI = finiteIv(snap.Boot.PopCI(level))
	}
	for c, size := range snap.Result.Sizes {
		entry := sizeEntry{
			Cat: int32(c), Name: names[c], Size: size,
			Within: finitePtr(snap.Within[c]),
		}
		if withCI && snap.Boot != nil {
			entry.CI = finiteIv(snap.Boot.SizeCI(c, level))
			entry.WithinCI = finiteIv(snap.Boot.WithinCI(c, level))
		}
		doc.Sizes = append(doc.Sizes, entry)
	}
	for _, e := range cg.Edges() {
		if math.IsNaN(e.Weight) { // unresolvable star denominator
			continue
		}
		entry := weightEntry{A: e.A, B: e.B, Weight: e.Weight, Cut: cg.Cut(e.A, e.B)}
		if withCI && snap.Boot != nil {
			entry.CI = finiteIv(snap.Boot.WeightCI(e.A, e.B, level))
		}
		doc.Weights = append(doc.Weights, entry)
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encode estimate: %w", err)
	}
	return append(body, '\n'), nil
}

func (s *server) handleTSV(w http.ResponseWriter, r *http.Request, j *job.Job) {
	cg, hit, err := j.CategoryGraph()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	noteRead("tsv", hit)
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	if err := cg.WriteTSV(w); err != nil {
		slog.Warn("write categorygraph.tsv", "err", err)
	}
}

// handleCrawlStart launches an adaptive crawl against the daemon's
// generated graph, streaming into the addressed job's accumulator. The body
// is a crawl.Config decoded onto a copy of the daemon's -crawl-* defaults;
// the crawl runs under the job's scenario and size method and the daemon's
// N. One crawl runs at a time per job — starting while the job's crawl is
// active is a 409, while crawls in other jobs proceed concurrently;
// finished crawls may be superseded (the accumulator keeps pooling draws
// across them).
func (s *server) handleCrawlStart(w http.ResponseWriter, r *http.Request, j *job.Job) {
	if s.crawlSource == nil {
		httpError(w, http.StatusNotFound, "no crawl backend: start the daemon with -crawl or -demo")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	cfg := s.crawlDefaults
	// The category lists decode fresh rather than into the defaults'
	// backing array; an absent (or null) list keeps the default.
	cfg.SizeCats, cfg.WithinCats = nil, nil
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &cfg); err != nil {
			httpError(w, http.StatusBadRequest, "bad crawl config: %v", err)
			return
		}
	}
	if cfg.SizeCats == nil {
		cfg.SizeCats = s.crawlDefaults.SizeCats
	}
	if cfg.WithinCats == nil {
		cfg.WithinCats = s.crawlDefaults.WithinCats
	}
	_, err = j.StartCrawl(s.crawlSource, cfg)
	if errors.Is(err, job.ErrCrawlRunning) {
		httpError(w, http.StatusConflict, "a crawl is already running in job %q; poll its crawl/status", j.Name())
		return
	}
	if err != nil {
		if errors.Is(err, sample.ErrNoEdges) {
			httpError(w, http.StatusUnprocessableEntity, "crawl backend is not walkable: %v", err)
		} else {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	slog.Info("crawl started", "job", j.Name(),
		"walkers", max(cfg.Walkers, 1), "sampler", orDefault(cfg.Sampler, crawl.SamplerRW),
		"engine", orDefault(string(cfg.Engine), string(crawl.EngineBootstrap)),
		"size_target", cfg.SizeTarget, "max_draws", cfg.MaxDraws)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"status":    "started",
		"walkers":   max(cfg.Walkers, 1),
		"max_draws": cfg.MaxDraws,
	})
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// crawlStatusDoc is the JSON shape of GET /crawl/status. Half-width arrays
// use pointers so unresolved estimands (NaN) travel as null.
type crawlStatusDoc struct {
	State    string      `json:"state"` // none | running | done | failed
	Draws    int         `json:"draws,omitempty"`
	MaxDraws int         `json:"max_draws,omitempty"`
	Walkers  []walkerDoc `json:"walkers,omitempty"`
	// Queries is the number of chargeable neighbor-queries spent so far;
	// present only when the backend meters access (-qps / -query-cost).
	Queries    *int64          `json:"queries,omitempty"`
	Checkpoint *checkpointDoc  `json:"checkpoint,omitempty"`
	Result     *crawlResultDoc `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
}

type walkerDoc struct {
	Walker int   `json:"walker"`
	Draws  int   `json:"draws"`
	Node   int32 `json:"node"`
}

type checkpointDoc struct {
	Seq        int        `json:"seq"`
	Draws      int        `json:"draws"`
	SizeHW     []*float64 `json:"size_hw"`
	WithinHW   []*float64 `json:"within_hw"`
	TargetsMet bool       `json:"targets_met"`
}

type crawlResultDoc struct {
	Stopped     string `json:"stopped"`
	Draws       int    `json:"draws"`
	Checkpoints int    `json:"checkpoints"`
	Queries     *int64 `json:"queries,omitempty"`
}

func finiteSlice(xs []float64) []*float64 {
	out := make([]*float64, len(xs))
	for i, x := range xs {
		out[i] = finitePtr(x)
	}
	return out
}

func checkpointToDoc(cp *crawl.Checkpoint) *checkpointDoc {
	if cp == nil {
		return nil
	}
	return &checkpointDoc{
		Seq:        cp.Seq,
		Draws:      cp.Draws,
		SizeHW:     finiteSlice(cp.SizeHW),
		WithinHW:   finiteSlice(cp.WithinHW),
		TargetsMet: cp.TargetsMet,
	}
}

// handleCrawlStatus reports the live state of the job's crawl: per-walker
// progress, the most recent stopping-rule checkpoint with its CI
// half-widths, and — once finished — the stop reason.
func (s *server) handleCrawlStatus(w http.ResponseWriter, r *http.Request, j *job.Job) {
	c := j.Crawl()
	doc := crawlStatusDoc{State: "none"}
	if c != nil {
		st := c.Status()
		doc.Draws = st.Draws
		doc.MaxDraws = st.MaxDraws
		for _, ws := range st.Walkers {
			doc.Walkers = append(doc.Walkers, walkerDoc{Walker: ws.Walker, Draws: ws.Draws, Node: ws.Node})
		}
		if st.Metered {
			doc.Queries = &st.Queries
		}
		doc.Checkpoint = checkpointToDoc(st.Last)
		if st.Running {
			doc.State = "running"
		} else if res, err := c.Wait(); err != nil {
			doc.State = "failed"
			doc.Error = err.Error()
		} else {
			doc.State = "done"
			doc.Result = &crawlResultDoc{
				Stopped:     string(res.Stopped),
				Draws:       res.Draws,
				Checkpoints: res.Checkpoints,
			}
			if res.Metered {
				doc.Result.Queries = &res.Queries
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// handleHealthz reports liveness plus enough build and workload context to
// identify what is running: accumulator configuration and stream position
// of the default job (the top-level fields every pre-existing probe reads),
// process pulse (uptime, goroutines), the build the binary was compiled
// from, the process-wide cumulative ingest and crawl counters (the same
// totals /metrics exports, in JSON for humans and probes), and a per-job
// section with each job's stream position, crawl state and last checkpoint.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	acc := s.def.Acc()
	doc := map[string]any{
		"status":      "ok",
		"scenario":    scenarioName(acc.Config().Star),
		"k":           acc.Config().K,
		"accumulator": ingestMode(acc),
		"bootstrap_b": acc.Config().Replicates.B,
		"draws":       acc.Draws(),
		"distinct":    acc.Distinct(),
		"uptime_s":    time.Since(s.start).Seconds(),
		"go_version":  runtime.Version(),
		"goroutines":  runtime.NumGoroutine(),
		"build":       buildDoc(),
		"ingest": map[string]int64{
			"records":  stream.IngestedTotal(),
			"rejected": stream.RejectedTotal(),
		},
		"crawl": map[string]int64{
			"draws":       crawl.DrawsTotal(),
			"checkpoints": crawl.CheckpointsTotal(),
		},
	}
	jobs := map[string]any{}
	for _, jb := range s.jobs.List() {
		jobs[jb.Name()] = jobDoc(jb)
	}
	doc["jobs"] = jobs
	if s.merger != nil {
		doc["merge"] = s.merger.status()
	}
	json.NewEncoder(w).Encode(doc)
}

// jobDoc is the JSON shape one job takes in GET /jobs and the /healthz jobs
// section.
func jobDoc(j *job.Job) map[string]any {
	acc := j.Acc()
	doc := map[string]any{
		"name":        j.Name(),
		"k":           acc.Config().K,
		"scenario":    scenarioName(acc.Config().Star),
		"accumulator": ingestMode(acc),
		"bootstrap_b": acc.Config().Replicates.B,
		"draws":       acc.Draws(),
		"distinct":    acc.Distinct(),
		"gen":         acc.Gen(),
		"crawl":       crawlStateName(j),
	}
	if gen, at := j.CheckpointStatus(); !at.IsZero() || gen > 0 {
		doc["checkpoint_gen"] = gen
		if !at.IsZero() {
			doc["checkpoint_age_s"] = time.Since(at).Seconds()
		}
	}
	return doc
}

// crawlStateName summarizes the job's crawl slot for listings.
func crawlStateName(j *job.Job) string {
	c := j.Crawl()
	if c == nil {
		return "none"
	}
	if j.CrawlRunning() {
		return "running"
	}
	if _, err := c.Wait(); err != nil {
		return "failed"
	}
	return "done"
}

// handleJobCreate registers a new job. The request body is a job.Spec
// decoded onto a copy of the daemon's template: "name" is required; every
// other field defaults to the daemon's flag-derived configuration, so
// {"name":"x"} clones the default job's shape. With -checkpoint-dir, a job
// whose checkpoint file holds a valid frame resumes from it (identity
// mismatch is a 409 — the durable state contradicts the request).
func (s *server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// The name is the body's own, never the template's "default". Names
	// decode fresh rather than into the template's backing array, and an
	// explicit "k" drops the template's names: kept, they would reset K to
	// their count.
	spec := s.template
	spec.Name, spec.Names = "", nil
	req := struct {
		*job.Spec
		K *int `json:"k"`
	}{Spec: &spec}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if spec.Name == "" {
		httpError(w, http.StatusBadRequest, `job spec needs a "name"`)
		return
	}
	if req.K != nil {
		spec.K = *req.K
	} else if spec.Names == nil {
		spec.Names = s.template.Names
	}
	j, err := s.jobs.Create(spec)
	var fileErr *fs.PathError
	switch {
	case errors.Is(err, job.ErrExists), errors.Is(err, job.ErrIdentity):
		// A taken name, or an identity conflict with a persisted checkpoint
		// (the durable state wins).
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.As(err, &fileErr):
		// The checkpoint file could not be read or repaired: a server fault,
		// not a bad spec.
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	slog.Info("job created", "job", j.Name(), "k", j.Spec().K,
		"scenario", scenarioName(j.Spec().Star), "gen", j.Acc().Gen())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(jobDoc(j))
}

// handleJobList lists every job with its stream position and crawl state.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	docs := []map[string]any{}
	for _, j := range s.jobs.List() {
		docs = append(docs, jobDoc(j))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"jobs": docs})
}

// handleJobDelete removes a job and its checkpoint file — the stream is
// discarded durably. The default job is the daemon's own configuration and
// cannot be deleted; a job with a running crawl cannot be deleted either.
func (s *server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("job")
	if name == job.DefaultName {
		httpError(w, http.StatusBadRequest, "the default job cannot be deleted; it is the daemon's own stream")
		return
	}
	err := s.jobs.Delete(name)
	switch {
	case errors.Is(err, job.ErrNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, job.ErrCrawlRunning):
		httpError(w, http.StatusConflict, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"deleted": name})
	}
}

// buildDoc summarizes runtime/debug.ReadBuildInfo: the main module path and
// version, plus the VCS revision and dirty flag when the build carries them
// (test binaries and plain `go run` may not).
func buildDoc() map[string]string {
	doc := map[string]string{"path": "", "version": ""}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return doc
	}
	doc["path"] = bi.Main.Path
	doc["version"] = bi.Main.Version
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			doc["revision"] = kv.Value
		case "vcs.modified":
			doc["modified"] = kv.Value
		}
	}
	return doc
}
