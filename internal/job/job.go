// Package job is the multi-tenant layer of the serving daemon: a named Job
// owns one accumulator (epoch-merged for star, single-lock for induced, or
// an adopted read-only pool), its read caches, its crawl slot and its
// durable checkpoint file; a Registry owns the collection — create, look
// up, delete, restore on restart, and checkpoint on a timer. The HTTP
// facade routes /jobs/{job}/... to a Job and aliases the legacy un-prefixed
// routes to the "default" job, so a single-tenant deployment never notices
// the layer.
//
// Durability. With a checkpoint directory configured, each job appends
// wire-framed checkpoints (wire.AppendCheckpoint) of its complete resumable
// state to <dir>/<name>.ckpt — on the registry's interval and once more at
// graceful shutdown, skipping frames whose generation has not advanced. On
// restart, Create finds the file, recovers the last intact frame
// (wire.LastCheckpoint — a torn tail from a crash is truncated away), checks
// the persisted identity (partition, scenario, bootstrap configuration)
// against the requested spec, and resumes the accumulator exactly where the
// frame cut it: generation, estimates and bootstrap replicates all match an
// uninterrupted run to ≤ 1e-9 (see stream.FullState).
package job

import (
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"repro/internal/catgraph"
	"repro/internal/core"
	"repro/internal/crawl"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/uncert"
	"repro/internal/wire"
)

// DefaultName is the job the legacy un-prefixed routes alias to.
const DefaultName = "default"

var (
	// ErrExists is returned by Registry.Create for a name already in use.
	ErrExists = errors.New("job: a job with that name already exists")
	// ErrNotFound is returned by Registry lookups for unknown names.
	ErrNotFound = errors.New("job: no such job")
	// ErrCrawlRunning is returned when an operation needs the job's crawl
	// slot (starting another crawl, deleting the job) while one is active.
	ErrCrawlRunning = errors.New("job: a crawl is running in this job")
	// ErrIdentity is returned by Registry.Create when the job's checkpoint
	// was written under different identity fields than the spec (see Spec).
	ErrIdentity = errors.New("job: checkpoint identity conflicts with the spec")
)

// nameRe is the filename-safe job-name alphabet: checkpoint files are named
// <job>.ckpt, so names must not traverse or collide.
var nameRe = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// ValidName reports whether s is a legal job name.
func ValidName(s string) bool { return nameRe.MatchString(s) }

// Spec is a job's declarative configuration — the JSON body of POST /jobs
// and the config payload persisted inside checkpoint frames. The identity
// fields (K/Names-derived partition, Star, Bootstrap, BootstrapSeed) are
// fixed for the life of the job's durable state: a restore under a different
// identity is an error. The serving fields (N, Size) are estimation-time
// choices and adopt the restart's values. Shards is read by nothing: the
// scenario picks the engine (Registry.build). It stays only because the
// benchmark's trace replay still sets it.
type Spec struct {
	Name          string   `json:"name"`
	K             int      `json:"k,omitempty"`
	Names         []string `json:"names,omitempty"`
	Star          bool     `json:"star"`
	N             float64  `json:"n,omitempty"`
	Size          string   `json:"size,omitempty"`
	Shards        int      `json:"shards,omitempty"`
	Bootstrap     int      `json:"bootstrap,omitempty"`
	BootstrapSeed uint64   `json:"bootstrap_seed,omitempty"`
}

// normalize fills derived defaults in place: Names sets K, Size defaults to
// auto, and an enabled bootstrap gets the daemon's default seed.
func (s *Spec) normalize() {
	if len(s.Names) > 0 {
		s.K = len(s.Names)
	}
	if s.Size == "" {
		s.Size = "auto"
	}
	if s.Bootstrap > 0 && s.BootstrapSeed == 0 {
		s.BootstrapSeed = 1
	}
}

// MaxReplicateCells bounds k·bootstrap, the number of cells in each of the
// up to seven K×B replicate grids a job allocates (uncert.NewReplicates):
// at the bound they take about 56 MB, where k and bootstrap each at their
// separate codec bound would ask for petabytes.
const MaxReplicateCells = 1 << 20

// validate checks a normalized spec.
func (s *Spec) validate() error {
	if !ValidName(s.Name) {
		return fmt.Errorf("job: name %q is not a filename-safe identifier ([a-zA-Z0-9_-], 1…64 chars)", s.Name)
	}
	// The upper bounds are the codecs': a larger job could never write a
	// checkpoint or serve /sums.
	if s.K < 1 || s.K > wire.MaxDim {
		return fmt.Errorf("job %q: need 1 ≤ k ≤ %d categories (or names), got %d", s.Name, wire.MaxDim, s.K)
	}
	if len(s.Names) > 0 && len(s.Names) != s.K {
		return fmt.Errorf("job %q: %d names for %d categories", s.Name, len(s.Names), s.K)
	}
	if s.Bootstrap < 0 || s.Bootstrap > wire.MaxDim {
		return fmt.Errorf("job %q: need 0 ≤ bootstrap ≤ %d, got %d", s.Name, wire.MaxDim, s.Bootstrap)
	}
	if s.K*s.Bootstrap > MaxReplicateCells {
		return fmt.Errorf("job %q: k·bootstrap = %d·%d exceeds %d replicate cells", s.Name, s.K, s.Bootstrap, MaxReplicateCells)
	}
	if _, err := ParseSizeMethod(s.Size); err != nil {
		return fmt.Errorf("job %q: %w", s.Name, err)
	}
	return nil
}

// identityMatches checks the durable-state identity fields against a
// persisted spec — the restore compatibility rule.
func (s *Spec) identityMatches(persisted *Spec) error {
	if s.K != persisted.K {
		return fmt.Errorf("%w: job %q: checkpoint covers %d categories, configuration has %d", ErrIdentity, s.Name, persisted.K, s.K)
	}
	if s.Star != persisted.Star {
		return fmt.Errorf("%w: job %q: checkpoint has star=%v, configuration has star=%v", ErrIdentity, s.Name, persisted.Star, s.Star)
	}
	if s.Bootstrap != persisted.Bootstrap || (s.Bootstrap > 0 && s.BootstrapSeed != persisted.BootstrapSeed) {
		return fmt.Errorf("%w: job %q: checkpoint bootstrap (B=%d seed=%d) conflicts with configuration (B=%d seed=%d)",
			ErrIdentity, s.Name, persisted.Bootstrap, persisted.BootstrapSeed, s.Bootstrap, s.BootstrapSeed)
	}
	return nil
}

// StreamConfig translates the spec into the accumulator configuration.
func (s *Spec) StreamConfig() (stream.Config, error) {
	method, err := ParseSizeMethod(s.Size)
	if err != nil {
		return stream.Config{}, err
	}
	return stream.Config{
		K: s.K, Star: s.Star, N: s.N, Size: method,
		Replicates: uncert.Config{B: s.Bootstrap, Seed: s.BootstrapSeed},
	}, nil
}

// ParseSizeMethod resolves the -size / spec "size" string.
func ParseSizeMethod(s string) (core.SizeMethod, error) {
	switch s {
	case "", "auto":
		return core.SizeMethodAuto, nil
	case "induced":
		return core.SizeMethodInduced, nil
	case "star":
		return core.SizeMethodStar, nil
	case "star-pooled":
		return core.SizeMethodStarPooled, nil
	}
	return 0, fmt.Errorf("unknown size method %q", s)
}

// Job is one tenant: an accumulator plus everything the serving layer keeps
// per stream — category names, the read caches, the crawl slot (one crawl
// at a time PER JOB; different jobs crawl concurrently), and the durable
// checkpoint state.
type Job struct {
	spec    Spec
	acc     stream.Ingester
	epoch   *stream.EpochAccumulator // non-nil iff acc is epoch-merged
	names   []string
	created time.Time

	// localMu guards the pool of idle writer-private locals (epoch-merged
	// accumulators only); see TakeLocal.
	localMu sync.Mutex
	idle    []*stream.Local

	// The read caches, one entry each (see read.go): the published
	// snapshot's category graph and /estimate body, and the current
	// generation's /sums body.
	graph    memo[*stream.Snapshot, *catgraph.Graph]
	estimate memo[estimateKey, []byte]
	sums     memo[uint64, *sumsBody]

	// crawlMu guards the job's crawl slot.
	crawlMu sync.Mutex
	crawl   *crawl.Crawl

	// ckptMu serializes checkpoint writes. ckptGen is the generation of the
	// last appended frame — a new frame is written only when the
	// accumulator's generation has advanced past it. ckptFrames counts the
	// intact frames in the file (seeded by recovery, advanced per append);
	// when it exceeds ckptMax (> 0) the file is compacted to its newest
	// frame. ckptTorn marks a failed append whose bytes the next append
	// must cut first.
	ckptMu     sync.Mutex
	ckptPath   string
	ckptFile   appendFile
	ckptTorn   bool
	ckptGen    uint64
	ckptAt     time.Time
	ckptFrames int
	ckptMax    int
	specJSON   []byte
}

// Name returns the job's name.
func (j *Job) Name() string { return j.spec.Name }

// Spec returns the job's normalized configuration.
func (j *Job) Spec() Spec { return j.spec }

// Acc returns the job's accumulator.
func (j *Job) Acc() stream.Ingester { return j.acc }

// Epoch returns the accumulator's epoch-merged form, nil otherwise.
func (j *Job) Epoch() *stream.EpochAccumulator { return j.epoch }

// Names returns the job's category names (always K entries).
func (j *Job) Names() []string { return j.names }

// Created returns when the job object was built in this process (restores
// count as creations — the stream's age lives in its generation).
func (j *Job) Created() time.Time { return j.created }

// TakeLocal borrows an idle writer-private local of the job's epoch-merged
// accumulator, growing the pool on demand, so a binary ingest request
// streams its records into a local without allocating an epoch. Returns nil
// when the accumulator has no epoch form. The caller must return the local
// with PutLocal.
func (j *Job) TakeLocal() *stream.Local {
	if j.epoch == nil {
		return nil
	}
	j.localMu.Lock()
	defer j.localMu.Unlock()
	if n := len(j.idle); n > 0 {
		l := j.idle[n-1]
		j.idle = j.idle[:n-1]
		return l
	}
	return j.epoch.NewLocal()
}

// PutLocal publishes a borrowed local's epoch and returns the local to the
// idle pool, so an idle local is always empty: whatever a request ingested
// is visible once the request returns its local, and a checkpoint never
// misses an acknowledged record.
func (j *Job) PutLocal(l *stream.Local) {
	l.Flush()
	j.localMu.Lock()
	j.idle = append(j.idle, l)
	j.localMu.Unlock()
}

// closeLocals unregisters every idle local (job teardown).
func (j *Job) closeLocals() {
	j.localMu.Lock()
	locals := j.idle
	j.idle = nil
	j.localMu.Unlock()
	for _, l := range locals {
		l.Close()
	}
}

// StartCrawl launches a crawl streaming into this job's accumulator. The
// crawl takes its scenario and size method from the accumulator, so a job
// created with its own "star" or "size" crawls under them; N stays the
// caller's, and crawl.Start rejects a mismatch. One crawl runs at a time
// per job — ErrCrawlRunning while one is active; finished crawls may be
// superseded (the accumulator keeps pooling draws across them). Crawls in
// different jobs run concurrently.
func (j *Job) StartCrawl(src graph.Source, cfg crawl.Config) (*crawl.Crawl, error) {
	ac := j.acc.Config()
	cfg.Star, cfg.Size = ac.Star, ac.Size
	j.crawlMu.Lock()
	defer j.crawlMu.Unlock()
	if j.crawl != nil {
		select {
		case <-j.crawl.Done():
		default:
			return nil, ErrCrawlRunning
		}
	}
	c, err := crawl.Start(src, j.acc, cfg)
	if err != nil {
		return nil, err
	}
	j.crawl = c
	mCrawlStarts.With(j.spec.Name).Inc()
	return c, nil
}

// Crawl returns the job's current (or last finished) crawl, nil if none was
// ever started.
func (j *Job) Crawl() *crawl.Crawl {
	j.crawlMu.Lock()
	defer j.crawlMu.Unlock()
	return j.crawl
}

// CrawlRunning reports whether a crawl is active right now.
func (j *Job) CrawlRunning() bool {
	j.crawlMu.Lock()
	defer j.crawlMu.Unlock()
	if j.crawl == nil {
		return false
	}
	select {
	case <-j.crawl.Done():
		return false
	default:
		return true
	}
}

// NoteIngest feeds the per-job ingest metrics: accepted records, request
// bytes, and batch latency.
func (j *Job) NoteIngest(records, bytes int, t0 time.Time) {
	name := j.spec.Name
	if records > 0 {
		mIngestRecords.With(name).Add(int64(records))
	}
	mIngestBytes.With(name).Add(int64(bytes))
	mIngestSec.With(name).ObserveSince(t0)
}

// Checkpoint appends a frame of the job's current state to its checkpoint
// file, if the state advanced since the last frame. It returns whether a
// frame was written. Jobs without a checkpoint path, and jobs whose
// accumulator has no full export (the read-only merge pool — its durable
// state lives on the workers), are silent no-ops.
func (j *Job) Checkpoint() (bool, error) {
	if j.ckptPath == "" {
		return false, nil
	}
	fe, ok := j.acc.(stream.FullExporter)
	if !ok {
		return false, nil
	}
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	if j.acc.Gen() == j.ckptGen {
		return false, nil
	}
	t0 := time.Now()
	fs, err := fe.ExportFull()
	if err != nil {
		return false, fmt.Errorf("job %q: checkpoint export: %w", j.spec.Name, err)
	}
	if fs.State.Gen == j.ckptGen {
		return false, nil
	}
	if j.ckptFile == nil {
		if j.ckptTorn {
			_, frames, _, err := cutTornTail(j.ckptPath)
			if err != nil {
				return false, fmt.Errorf("job %q: %w", j.spec.Name, err)
			}
			j.ckptFrames, j.ckptTorn = frames, false
		}
		f, err := openAppend(j.ckptPath)
		if err != nil {
			return false, fmt.Errorf("job %q: %w", j.spec.Name, err)
		}
		j.ckptFile = f
	}
	n, err := wire.AppendCheckpoint(j.ckptFile, &wire.Checkpoint{
		Name:   j.spec.Name,
		Config: j.specJSON,
		Gen:    fs.State.Gen,
		State:  fs,
	})
	if err == nil {
		err = j.ckptFile.Sync()
	}
	if err != nil {
		// The file may now end in a torn frame, and a frame appended after
		// it would be unreachable. Drop the handle: the next append first
		// cuts the file back to its last intact frame.
		j.ckptFile.Close()
		j.ckptFile, j.ckptTorn = nil, true
		return false, fmt.Errorf("job %q: %w", j.spec.Name, err)
	}
	if j.ckptFrames == 0 {
		// This frame created the file (or revived an empty one): fsync the
		// directory so the entry itself survives a crash — the second half
		// of the AppendCheckpoint durability contract. Without it, a crash
		// right after job creation could lose the file despite the frame
		// fsync above.
		if err := wire.SyncDir(filepath.Dir(j.ckptPath)); err != nil {
			return false, fmt.Errorf("job %q: %w", j.spec.Name, err)
		}
	}
	j.ckptFrames++
	j.ckptGen = fs.State.Gen
	j.ckptAt = time.Now()
	name := j.spec.Name
	mCkptFrames.With(name).Inc()
	mCkptBytes.With(name).Add(int64(n))
	mCkptSec.With(name).ObserveSince(t0)
	mCkptLast.With(name).Set(float64(j.ckptAt.UnixNano()) / 1e9)

	if j.ckptMax > 0 && j.ckptFrames > j.ckptMax {
		// Compaction renames a fresh file over the path; the O_APPEND
		// handle would keep appending to the replaced inode, so close it
		// first and let the next frame reopen lazily.
		j.ckptFile.Close()
		j.ckptFile = nil
		dropped, err := wire.CompactCheckpoints(j.ckptPath)
		if err != nil {
			return true, fmt.Errorf("job %q: %w", j.spec.Name, err)
		}
		j.ckptFrames -= dropped
		mCkptCompactions.With(name).Inc()
		mCkptDropped.With(name).Add(int64(dropped))
	}
	return true, nil
}

// CheckpointStatus returns the generation and wall time of the job's last
// appended frame (zero values when none was written this process lifetime —
// after a restore, the restored generation counts as checkpointed).
func (j *Job) CheckpointStatus() (gen uint64, at time.Time) {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	return j.ckptGen, j.ckptAt
}

// closeCheckpoint closes the checkpoint file handle (job teardown).
func (j *Job) closeCheckpoint() {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	if j.ckptFile != nil {
		j.ckptFile.Close()
		j.ckptFile = nil
	}
}

// defaultNames generates the C0…C(k−1) placeholder names.
func defaultNames(k int) []string {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("C%d", i)
	}
	return names
}
