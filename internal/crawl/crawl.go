// Package crawl closes the paper's "how much crawling is enough" loop: it
// runs M concurrent walkers against a graph backend, streams their
// observations into a stream accumulator (epoch-merged under star
// sampling, single-lock under induced), and stops adaptively when the
// confidence intervals of the targeted estimands are tight enough —
// instead of the fixed budgets of §6's offline sweeps,
// the crawl's own uncertainty (internal/uncert) is the stopping signal.
//
// The controller advances in checkpointed rounds: every CheckEvery draws
// (split deterministically across the walkers) it takes a snapshot,
// computes the CI half-width of every targeted category size and
// within-category weight under the configured engine — the streaming
// bootstrap of the shared accumulator, or the between-walk replication
// variance of the per-walker sufficient statistics — and stops as soon as
// every target is met (ReasonTarget) or the MaxDraws budget is exhausted
// (ReasonBudget). Between star checkpoints the walkers run with no
// coordination at all — each walker ingests into a writer-private
// stream.Local and flushes it at the round barrier, so the checkpoint
// snapshot always sees every draw of every finished round; induced walkers
// share one observer and the accumulator's lock. Both
// stopping engines thus share one structure: per-walker private state,
// folded at checkpoint boundaries (the bootstrap engine merges local
// epochs into the shared accumulator; the replication engine pools
// per-walker sufficient statistics into the between-walk variance).
//
// Determinism: walker i steps with randx.Derive(Seed, i), rounds allocate
// draws to walkers by a fixed rule, and stopping decisions are evaluated at
// round barriers — so for a fixed seed and configuration every run performs
// the identical set of draws and the per-walker draw counts are exactly
// reproducible. Estimates agree across runs to float-reassociation error
// (≤ 1e-9): concurrent ingestion interleaves differently run to run, and
// the accumulator's sums are order-independent only up to rounding.
package crawl

import (
	"fmt"
	"log/slog"
	"math"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// The crawling samplers the controller can drive (Config.Sampler).
const (
	SamplerRW   = "RW"
	SamplerMHRW = "MHRW"
	SamplerWRW  = "WRW"
	SamplerSWRW = "S-WRW"
)

// Engine selects the uncertainty engine behind the stopping rule.
type Engine string

const (
	// EngineBootstrap reads CI widths off the shared accumulator's
	// streaming bootstrap (works for any walker count; requires
	// Config.Bootstrap.B > 0 replicates, defaulted to 200 when targets are
	// set). The empty string means EngineBootstrap.
	EngineBootstrap Engine = "bootstrap"
	// EngineReplication reads CI widths from the between-walk spread of
	// the per-walker estimates (needs ≥ 2 walkers). It is the only engine
	// that captures within-walk correlation, so its intervals are honest
	// for strongly mixing-limited walks where the bootstrap is optimistic;
	// each walker then maintains a private copy of its sufficient
	// statistics, roughly doubling ingest cost.
	EngineReplication Engine = "replication"
)

// Reason tells why a crawl stopped.
type Reason string

const (
	// ReasonTarget: every targeted CI half-width fell below its threshold.
	ReasonTarget Reason = "target"
	// ReasonBudget: the MaxDraws budget was exhausted first.
	ReasonBudget Reason = "budget"
)

// MaxWalkers bounds Config.Walkers. Every walker costs a goroutine per
// round and, under star sampling, an observer bitmap of N/8 bytes, so the
// bound keeps one configuration from exhausting the process.
const MaxWalkers = 1024

// Config parameterizes an adaptive crawl. The JSON tags are the wire form
// of topoestd's POST /crawl body, which decodes onto a copy of the daemon's
// defaults; fields tagged "-" are fixed by the daemon or the job's
// accumulator and cannot be set by a request.
type Config struct {
	// Walkers is the number of concurrent walkers M (0 means 1, at most
	// MaxWalkers). Each walker is an independent trajectory with its own
	// derived seed.
	Walkers int `json:"walkers"`
	// Sampler names the transition kernel: SamplerRW (default), SamplerMHRW,
	// SamplerWRW (set NodeWeight) or SamplerSWRW (set SWRW).
	Sampler string `json:"sampler"`
	// NodeWeight holds the per-node stratification weights of a WRW.
	NodeWeight []float64 `json:"-"`
	// SWRW parameterizes the S-WRW sampler (its BurnIn/Thin are ignored —
	// the controller's BurnIn/Thin apply).
	SWRW sample.SWRWConfig `json:"-"`
	// BurnIn discards this many initial transitions per walker.
	BurnIn int `json:"burn_in"`
	// Thin records every Thin-th visited node (0 means 1).
	Thin int `json:"thin"`
	// Seed is the master seed; walker i draws from randx.Derive(Seed, i).
	Seed uint64 `json:"seed"`

	// Star selects the measurement scenario and with it the accumulator.
	// Under induced sampling the walkers share one observer and a
	// single-lock accumulator; under star sampling each walker observes
	// independently and ingests through its own stream.Local of an
	// epoch-merged one.
	Star bool `json:"-"`
	// N is the population size |V| (0 = unknown, relative sizes).
	N float64 `json:"-"`
	// Size selects the category-size estimator.
	Size core.SizeMethod `json:"-"`
	// Bootstrap configures the streaming-bootstrap replicates of the
	// shared accumulator (EngineBootstrap's CI source). A zero B with CI
	// targets set defaults to 200; Seed 0 inherits the crawl Seed.
	Bootstrap uncert.Config `json:"-"`

	// Engine selects the stopping-rule CI engine (default EngineBootstrap).
	Engine Engine `json:"engine"`
	// Level is the confidence level of the stopping CIs (0 means 0.95).
	Level float64 `json:"level"`
	// SizeTarget stops the crawl once every targeted category's size CI
	// half-width is ≤ SizeTarget (in nodes when N is set, else relative).
	// 0 leaves sizes untargeted.
	SizeTarget float64 `json:"size_target"`
	// SizeCats restricts the size target to these categories (nil = all;
	// an empty non-nil list with a positive target is an error).
	SizeCats []int `json:"size_cats"`
	// WithinTarget is the analogous half-width target on the
	// within-category weights ŵ(A,A). 0 leaves them untargeted.
	WithinTarget float64 `json:"within_target"`
	// WithinCats restricts the within target (nil = all).
	WithinCats []int `json:"within_cats"`

	// MaxDraws is the hard total draw budget (required). With no targets
	// set the crawl runs to exactly MaxDraws — the fixed-budget crawl as a
	// special case.
	MaxDraws int `json:"max_draws"`
	// MinDraws forbids target-stopping before this many draws (burn-in for
	// the stopping rule itself; 0 = none).
	MinDraws int `json:"min_draws"`
	// CheckEvery is the checkpoint cadence in total draws (0 means 1000):
	// the stopping rule is evaluated, and progress published, every
	// CheckEvery draws.
	CheckEvery int `json:"check_every"`
	// RoundDelay pauses between rounds (demo pacing; 0 = none).
	RoundDelay time.Duration `json:"-"`

	// Logger, when non-nil, receives one structured record per checkpoint
	// (sequence, draws, targets-met) and one when the crawl stops. The
	// controller never logs on the per-draw path.
	Logger *slog.Logger `json:"-"`
}

// WalkerStats is one walker's progress.
type WalkerStats struct {
	Walker int   `json:"walker"`
	Draws  int   `json:"draws"`
	Node   int32 `json:"node"`
}

// Checkpoint is the stopping-rule evaluation at one round barrier.
type Checkpoint struct {
	// Seq numbers the checkpoints of one crawl from 1; Draws is the total
	// draw count the checkpoint describes.
	Seq   int
	Draws int
	// SizeHW[c] and WithinHW[c] are the current CI half-widths of category
	// c's size and within-weight under the stopping engine (NaN when the
	// engine cannot resolve the estimand yet).
	SizeHW   []float64
	WithinHW []float64
	// TargetsMet reports whether every configured target was satisfied at
	// this checkpoint (always false when no target is configured).
	TargetsMet bool
}

// Status is a live view of a running (or finished) crawl.
type Status struct {
	Running  bool
	Draws    int
	MaxDraws int
	Walkers  []WalkerStats
	// Metered reports whether the graph backend meters access
	// (graph.QuerySource); Queries is then the number of chargeable
	// neighbor-queries this crawl has spent so far (delta since Start) —
	// the crawl's real cost against an API-crawl budget, as opposed to
	// its draw count.
	Metered bool
	Queries int64
	// Last is the most recent checkpoint (nil before the first).
	Last *Checkpoint
}

// Result summarizes a finished crawl.
type Result struct {
	// Stopped tells whether the CI targets or the budget ended the crawl.
	Stopped Reason
	// Draws is the total number of draws ingested; Checkpoints how many
	// stopping-rule evaluations ran.
	Draws       int
	Checkpoints int
	// Snapshot is the final pooled estimate from the shared accumulator.
	Snapshot *stream.Snapshot
	// SizeHW and WithinHW are the final per-category CI half-widths under
	// the stopping engine (NaN where unresolved).
	SizeHW   []float64
	WithinHW []float64
	// Replication holds the final between-walk summary under
	// EngineReplication (nil under EngineBootstrap).
	Replication *uncert.Replication
	// Walkers is the per-walker draw breakdown.
	Walkers []WalkerStats
	// Metered and Queries report the neighbor-queries this crawl spent
	// (counter delta since Start, so successive jobs over one shared
	// source account separately) when the backend meters access (a
	// RateLimited source): the paper's API-crawl scenario, where queries —
	// not draws — are the scarce resource. Queries is 0 and Metered false
	// on unmetered backends.
	Metered bool
	Queries int64
}

// Crawl is a running adaptive crawl. Start it with Start, watch it with
// Status, and collect the result with Wait.
type Crawl struct {
	cfg Config
	src graph.Source
	acc stream.Ingester

	// startQueries is the metered source's counter at Start: sources are
	// shared across jobs (topoestd runs successive crawls over one
	// backend), so per-job query counts are deltas, not the global total.
	startQueries int64

	sizeCats   []int
	withinCats []int

	// sharedObs (guarded by obsMu) is the crawl-wide observer of the
	// induced scenario, and single is acc as the single-lock accumulator
	// its records go into; both are nil under star, where observers are
	// per-walker.
	obsMu     sync.Mutex
	sharedObs *sample.StreamObserver
	single    *stream.Accumulator

	walkers []*walker

	mu      sync.Mutex
	last    *Checkpoint
	lastRep *uncert.Replication
	res     *Result
	err     error

	done chan struct{}
}

// Start validates the configuration and launches the crawl. acc is the
// accumulator the walkers stream into; nil builds one from the
// configuration (epoch-merged under star, with one stream.Local per walker
// flushed at round barriers; single-lock under induced). Passing an
// existing accumulator lets a server keep serving live estimates from the
// same statistics the crawl feeds — its scenario and category count must
// match, a star crawl needs a *stream.EpochAccumulator and an induced one a
// *stream.Accumulator, and with EngineBootstrap and CI targets it must have
// bootstrap replicates enabled.
func Start(src graph.Source, acc stream.Ingester, cfg Config) (*Crawl, error) {
	if isNilSource(src) || src.NumCategories() == 0 {
		return nil, fmt.Errorf("crawl: need a categorized graph")
	}
	if err := normalize(&cfg, src.NumCategories()); err != nil {
		return nil, err
	}
	targeted := cfg.SizeTarget > 0 || cfg.WithinTarget > 0
	if acc == nil {
		scfg := stream.Config{K: src.NumCategories(), Star: cfg.Star, N: cfg.N, Size: cfg.Size}
		if cfg.Engine == EngineBootstrap && targeted {
			scfg.Replicates = cfg.Bootstrap
		}
		var err error
		if cfg.Star {
			acc, err = stream.NewEpochAccumulator(scfg, 0)
		} else {
			acc, err = stream.NewAccumulator(scfg)
		}
		if err != nil {
			return nil, err
		}
	} else {
		ac := acc.Config()
		if ac.Star != cfg.Star {
			return nil, fmt.Errorf("crawl: accumulator scenario (star=%v) does not match config (star=%v)", ac.Star, cfg.Star)
		}
		if ac.K != src.NumCategories() {
			return nil, fmt.Errorf("crawl: accumulator has %d categories, graph has %d", ac.K, src.NumCategories())
		}
		// N and Size must agree too: the replication engine evaluates CI
		// widths on per-walker accumulators built from cfg, and a config
		// N of 0 against an accumulator serving absolute sizes would put
		// the stopping thresholds on a different scale than the estimates
		// — a target "±400 nodes" would be compared against fraction-scale
		// half-widths and trivially met.
		if ac.N != cfg.N {
			return nil, fmt.Errorf("crawl: accumulator population size N=%g does not match config N=%g", ac.N, cfg.N)
		}
		if ac.Size != cfg.Size {
			return nil, fmt.Errorf("crawl: accumulator size method %v does not match config %v", ac.Size, cfg.Size)
		}
		if cfg.Engine == EngineBootstrap && targeted && !ac.Replicates.Enabled() {
			return nil, fmt.Errorf("crawl: bootstrap stopping engine needs an accumulator with bootstrap replicates enabled")
		}
	}
	ea, _ := acc.(*stream.EpochAccumulator)
	if cfg.Star && ea == nil {
		return nil, fmt.Errorf("crawl: a star crawl needs an epoch-merged accumulator, got %T", acc)
	}
	single, _ := acc.(*stream.Accumulator)
	if !cfg.Star && single == nil {
		return nil, fmt.Errorf("crawl: an induced crawl needs a single-lock accumulator, got %T", acc)
	}
	c := &Crawl{
		cfg:        cfg,
		src:        src,
		acc:        acc,
		single:     single,
		sizeCats:   catSet(cfg.SizeCats, src.NumCategories()),
		withinCats: catSet(cfg.WithinCats, src.NumCategories()),
		done:       make(chan struct{}),
	}
	c.startQueries, _ = graph.QueriesOf(src)
	if !cfg.Star {
		so, err := sample.NewStreamObserver(src, false)
		if err != nil {
			return nil, err
		}
		c.sharedObs = so
	}
	step, err := newStepper(src, &cfg)
	if err != nil {
		return nil, err
	}
	c.walkers = make([]*walker, cfg.Walkers)
	for i := range c.walkers {
		w := &walker{id: i, r: randx.Derive(cfg.Seed, uint64(i)), step: step}
		if w.cur, err = sample.RandomStart(w.r, src); err != nil {
			return nil, fmt.Errorf("crawl: walker %d: %w", i, err)
		}
		if cfg.Star {
			if w.obs, err = sample.NewStreamObserver(src, true); err != nil {
				return nil, err
			}
		}
		if cfg.Engine == EngineReplication {
			if w.priv, err = stream.NewAccumulator(stream.Config{
				K: src.NumCategories(), Star: cfg.Star, N: cfg.N, Size: cfg.Size,
			}); err != nil {
				return nil, err
			}
			if !cfg.Star {
				// Induced: the private stream needs its own observer (the
				// shared one cites peers of other walkers). Star records
				// are self-contained and reused as-is.
				if w.privObs, err = sample.NewStreamObserver(src, false); err != nil {
					return nil, err
				}
			}
		}
		c.walkers[i] = w
	}
	// Star: each walker ingests through its own writer-local epoch — no
	// shared state on the per-draw path — flushed at round barriers
	// (walker.runRound), so every checkpoint snapshot sees all draws of
	// finished rounds.
	if ea != nil {
		for _, w := range c.walkers {
			w.local = ea.NewLocal()
		}
	}
	go c.run()
	return c, nil
}

// normalize applies documented defaults and rejects invalid parameters.
func normalize(cfg *Config, k int) error {
	if cfg.Walkers == 0 {
		cfg.Walkers = 1
	}
	if cfg.Walkers < 1 || cfg.Walkers > MaxWalkers {
		return fmt.Errorf("crawl: need 1 ≤ Walkers ≤ %d, got %d", MaxWalkers, cfg.Walkers)
	}
	if cfg.Thin == 0 {
		cfg.Thin = 1
	}
	if cfg.Thin < 1 {
		return fmt.Errorf("crawl: need Thin ≥ 1, got %d", cfg.Thin)
	}
	if cfg.BurnIn < 0 {
		return fmt.Errorf("crawl: need BurnIn ≥ 0, got %d", cfg.BurnIn)
	}
	if cfg.MaxDraws < 1 {
		return fmt.Errorf("crawl: need MaxDraws ≥ 1, got %d", cfg.MaxDraws)
	}
	if cfg.MinDraws < 0 {
		return fmt.Errorf("crawl: need MinDraws ≥ 0, got %d", cfg.MinDraws)
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 1000
	}
	if cfg.CheckEvery < 1 {
		return fmt.Errorf("crawl: need CheckEvery ≥ 1, got %d", cfg.CheckEvery)
	}
	if cfg.CheckEvery < cfg.Walkers {
		// Every walker draws at least once per full round; a cadence below
		// the walker count would otherwise leave high-index walkers idle.
		cfg.CheckEvery = cfg.Walkers
	}
	if cfg.Level == 0 {
		cfg.Level = 0.95
	}
	if !(cfg.Level > 0 && cfg.Level < 1) {
		return fmt.Errorf("crawl: confidence level must lie in (0,1), got %g", cfg.Level)
	}
	if cfg.SizeTarget < 0 || cfg.WithinTarget < 0 {
		return fmt.Errorf("crawl: CI half-width targets must be ≥ 0")
	}
	// A nil list means all categories; an empty one would leave a target
	// with nothing to check, met at the first checkpoint.
	if (cfg.SizeTarget > 0 && cfg.SizeCats != nil && len(cfg.SizeCats) == 0) ||
		(cfg.WithinTarget > 0 && cfg.WithinCats != nil && len(cfg.WithinCats) == 0) {
		return fmt.Errorf("crawl: a CI target over an empty category list (nil means all categories)")
	}
	if cfg.Engine == "" {
		cfg.Engine = EngineBootstrap
	}
	if cfg.Engine != EngineBootstrap && cfg.Engine != EngineReplication {
		return fmt.Errorf("crawl: unknown engine %q (want %q or %q)", cfg.Engine, EngineBootstrap, EngineReplication)
	}
	if cfg.Engine == EngineReplication && cfg.Walkers < 2 {
		return fmt.Errorf("crawl: the replication engine needs ≥ 2 walkers, got %d", cfg.Walkers)
	}
	if cfg.Engine == EngineBootstrap && (cfg.SizeTarget > 0 || cfg.WithinTarget > 0) {
		if cfg.Bootstrap.B == 0 {
			cfg.Bootstrap.B = 200
		}
		if cfg.Bootstrap.Seed == 0 {
			cfg.Bootstrap.Seed = cfg.Seed
		}
	}
	for _, cat := range append(append([]int(nil), cfg.SizeCats...), cfg.WithinCats...) {
		if cat < 0 || cat >= k {
			return fmt.Errorf("crawl: target category %d outside [0,%d)", cat, k)
		}
	}
	return nil
}

// isNilSource reports whether src is nil, including a typed nil pointer
// wrapped in the interface — `Start((*graph.Graph)(nil), …)` must return
// the clean "need a categorized graph" error the concrete-pointer
// signature used to give, not panic inside NumCategories.
func isNilSource(src graph.Source) bool {
	if src == nil {
		return true
	}
	v := reflect.ValueOf(src)
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice, reflect.Func, reflect.Chan:
		return v.IsNil()
	}
	return false
}

// catSet resolves a target category list (nil = all k categories).
func catSet(cats []int, k int) []int {
	if cats != nil {
		return cats
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	return all
}

// Accumulator returns the accumulator the crawl streams into (live reads
// are safe while the crawl runs).
func (c *Crawl) Accumulator() stream.Ingester { return c.acc }

// Done returns a channel closed when the crawl finishes.
func (c *Crawl) Done() <-chan struct{} { return c.done }

// Wait blocks until the crawl finishes and returns its result.
func (c *Crawl) Wait() (*Result, error) {
	<-c.done
	return c.res, c.err
}

// Status reports live progress: total and per-walker draws, and the most
// recent stopping-rule checkpoint.
func (c *Crawl) Status() Status {
	st := Status{MaxDraws: c.cfg.MaxDraws}
	select {
	case <-c.done:
	default:
		st.Running = true
	}
	for _, w := range c.walkers {
		d := int(w.draws.Load())
		st.Walkers = append(st.Walkers, WalkerStats{Walker: w.id, Draws: d, Node: w.node.Load()})
		st.Draws += d
	}
	st.Queries, st.Metered = graph.QueriesOf(c.src)
	st.Queries -= c.startQueries
	c.mu.Lock()
	st.Last = c.last
	c.mu.Unlock()
	return st
}

func (c *Crawl) run() {
	activeJobs.Add(1)
	defer activeJobs.Add(-1)
	res, err := c.crawl()
	c.mu.Lock()
	c.res, c.err = res, err
	c.mu.Unlock()
	close(c.done)
}

// flushLocals flushes and releases every walker's epoch local. Rounds
// already flush at their barrier, so at normal completion this publishes
// nothing; on an error path it publishes whatever the aborted round
// ingested.
func (c *Crawl) flushLocals() {
	for _, w := range c.walkers {
		if w.local != nil {
			w.local.Flush()
			w.local = nil
		}
	}
}

func (c *Crawl) crawl() (*Result, error) {
	defer c.flushLocals()
	// Burn-in: every walker advances BurnIn transitions concurrently
	// before the first recorded draw (burn-in steps do not count against
	// the draw budget).
	var bwg sync.WaitGroup
	for _, w := range c.walkers {
		bwg.Add(1)
		go func(w *walker) {
			defer bwg.Done()
			for i := 0; i < c.cfg.BurnIn; i++ {
				w.cur = w.step.Step(w.r, w.cur)
			}
		}(w)
	}
	bwg.Wait()

	draws, checkpoints := 0, 0
	stopped := ReasonBudget
	var last *Checkpoint
	for draws < c.cfg.MaxDraws {
		// One round: CheckEvery draws (clipped to the remaining budget),
		// allocated deterministically. The remainder rotates across rounds
		// (the extra draws go to walkers shift..shift+extra−1 mod M) so a
		// cadence that doesn't divide evenly cannot permanently skew the
		// per-walker draw counts — and with CheckEvery ≥ Walkers enforced
		// by normalize, every walker works every full round.
		m := len(c.walkers)
		round := c.cfg.CheckEvery
		if rem := c.cfg.MaxDraws - draws; round > rem {
			round = rem
		}
		base, extra := round/m, round%m
		shift := (checkpoints * extra) % m
		errs := make([]error, m)
		var wg sync.WaitGroup
		for i, w := range c.walkers {
			n := base
			if (i-shift+m)%m < extra {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(i int, w *walker, n int) {
				defer wg.Done()
				errs[i] = w.runRound(c, n)
			}(i, w, n)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		draws += round
		checkpoints++
		cp, err := c.checkpoint(checkpoints, draws)
		if err != nil {
			return nil, err
		}
		last = cp
		c.mu.Lock()
		c.last = cp
		c.mu.Unlock()
		c.publishCheckpoint(cp)
		if c.cfg.Logger != nil {
			c.cfg.Logger.Info("crawl checkpoint",
				"seq", cp.Seq, "draws", cp.Draws, "max_draws", c.cfg.MaxDraws,
				"targets_met", cp.TargetsMet)
		}
		if cp.TargetsMet && draws >= c.cfg.MinDraws {
			stopped = ReasonTarget
			break
		}
		if c.cfg.RoundDelay > 0 && draws < c.cfg.MaxDraws {
			time.Sleep(c.cfg.RoundDelay)
		}
	}

	// This returns the last bootstrap checkpoint's snapshot, published for
	// the current generation, unless a record landed after it (another
	// writer into a shared accumulator).
	snap, err := c.acc.Snapshot()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stopped:     stopped,
		Draws:       draws,
		Checkpoints: checkpoints,
		Snapshot:    snap,
		SizeHW:      last.SizeHW,
		WithinHW:    last.WithinHW,
	}
	if c.cfg.Engine == EngineReplication {
		res.Replication = c.lastRep
	}
	for _, w := range c.walkers {
		res.Walkers = append(res.Walkers, WalkerStats{Walker: w.id, Draws: int(w.draws.Load()), Node: w.node.Load()})
	}
	res.Queries, res.Metered = graph.QueriesOf(c.src)
	res.Queries -= c.startQueries
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info("crawl finished",
			"stopped", string(res.Stopped), "draws", res.Draws,
			"checkpoints", res.Checkpoints, "queries", res.Queries)
	}
	return res, nil
}

// checkpoint evaluates the stopping rule at one round barrier: the current
// CI half-width of every category size and within-weight under the
// configured engine.
func (c *Crawl) checkpoint(seq, draws int) (*Checkpoint, error) {
	defer mCheckpointSec.ObserveSince(time.Now())
	mCheckpoints.Inc()
	k := c.src.NumCategories()
	cp := &Checkpoint{Seq: seq, Draws: draws, SizeHW: nanSlice(k), WithinHW: nanSlice(k)}
	switch c.cfg.Engine {
	case EngineReplication:
		sums := make([]*core.Sums, len(c.walkers))
		for i, w := range c.walkers {
			st, err := w.priv.Export()
			if err != nil {
				return nil, err
			}
			sums[i] = st.Sums
		}
		rep, err := uncert.ReplicationCI(sums, core.Options{N: c.cfg.N, Size: c.cfg.Size}, c.cfg.Level)
		if err != nil {
			return nil, err
		}
		for cat := 0; cat < k; cat++ {
			cp.SizeHW[cat] = halfWidth(rep.Sizes[cat])
			cp.WithinHW[cat] = halfWidth(rep.Within[cat])
		}
		c.lastRep = rep
	default:
		// Without replicates there are no widths to read, so skip the
		// snapshot entirely: an untargeted (budget-only) crawl then leaves
		// the accumulator's convergence baseline to its other consumers
		// (the daemon's /estimate readers) instead of zeroing their deltas
		// at every checkpoint.
		if !c.acc.Config().Replicates.Enabled() {
			break
		}
		snap, err := c.acc.Snapshot()
		if err != nil {
			return nil, err
		}
		if snap.Boot != nil {
			for cat := 0; cat < k; cat++ {
				cp.SizeHW[cat] = halfWidth(snap.Boot.SizeCI(cat, c.cfg.Level))
				cp.WithinHW[cat] = halfWidth(snap.Boot.WithinCI(cat, c.cfg.Level))
			}
		}
	}
	cp.TargetsMet = c.targetsMet(cp)
	return cp, nil
}

// targetsMet reports whether every configured CI half-width target holds
// (false when none is configured — a pure-budget crawl never target-stops).
func (c *Crawl) targetsMet(cp *Checkpoint) bool {
	if c.cfg.SizeTarget == 0 && c.cfg.WithinTarget == 0 {
		return false
	}
	if c.cfg.SizeTarget > 0 {
		for _, cat := range c.sizeCats {
			if hw := cp.SizeHW[cat]; math.IsNaN(hw) || hw > c.cfg.SizeTarget {
				return false
			}
		}
	}
	if c.cfg.WithinTarget > 0 {
		for _, cat := range c.withinCats {
			if hw := cp.WithinHW[cat]; math.IsNaN(hw) || hw > c.cfg.WithinTarget {
				return false
			}
		}
	}
	return true
}

// halfWidth converts a CI to its half-width (NaN for unusable intervals).
func halfWidth(iv uncert.Interval) float64 {
	if !iv.Finite() {
		return math.NaN()
	}
	return iv.Width() / 2
}

func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}
