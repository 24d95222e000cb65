package job

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// appendFile is the slice of *os.File the checkpoint writer needs; tests
// substitute failure-injecting fakes.
type appendFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// openAppend opens (creating if absent) a checkpoint file for appending.
func openAppend(path string) (appendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open checkpoint file: %w", err)
	}
	return f, nil
}

// Registry owns the daemon's jobs: creation (with restore from a checkpoint
// file when one exists), lookup, deletion, the periodic checkpoint ticker,
// and the final checkpoint pass at shutdown.
type Registry struct {
	dir       string        // checkpoint directory; "" disables durability
	interval  time.Duration // periodic checkpoint cadence; 0 = shutdown-only
	maxFrames int           // compact a job's file past this many frames; 0 = never

	mu   sync.Mutex
	jobs map[string]*Job

	tickStop chan struct{}
	tickDone chan struct{}

	logger *slog.Logger
}

// NewRegistry builds a registry. A non-empty dir enables durable
// checkpointing (the directory is created if needed); interval is the
// periodic checkpoint cadence once Start runs (0 checkpoints only at
// shutdown). A nil logger falls back to slog.Default.
func NewRegistry(dir string, interval time.Duration, logger *slog.Logger) (*Registry, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &Registry{dir: dir, interval: interval, jobs: make(map[string]*Job), logger: logger}, nil
}

// Dir returns the checkpoint directory ("" when durability is off).
func (r *Registry) Dir() string { return r.dir }

// SetMaxFrames bounds how many frames a job's checkpoint file accumulates
// before it is compacted to its newest frame (wire.CompactCheckpoints);
// 0 — the default — never compacts, preserving the pure append-only
// behavior. Call it before creating jobs: the limit is copied into each job
// at build time.
func (r *Registry) SetMaxFrames(n int) { r.maxFrames = n }

// checkpointPath returns the job's checkpoint file path, "" when
// durability is off.
func (r *Registry) checkpointPath(name string) string {
	if r.dir == "" {
		return ""
	}
	return filepath.Join(r.dir, name+".ckpt")
}

// Create builds (or, when its checkpoint file holds a valid frame, restores)
// a job from spec and registers it. The spec is normalized and validated; on
// restore the persisted identity fields must match (see Spec). A torn tail
// after the last intact frame — the signature of a crash mid-append — is
// truncated away so future appends stay readable.
func (r *Registry) Create(spec Spec) (*Job, error) {
	spec.normalize()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.jobs[spec.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, spec.Name)
	}
	j, err := r.build(spec)
	if err != nil {
		return nil, err
	}
	r.jobs[spec.Name] = j
	return j, nil
}

// build constructs the job outside the map: accumulator (fresh or restored),
// names, checkpoint bookkeeping. The scenario picks the engine: epoch-merged
// for star, whose records combine by plain addition, single-lock for
// induced, whose edge masses couple two nodes. A star frame written by
// either engine restores into either.
func (r *Registry) build(spec Spec) (*Job, error) {
	cfg, err := spec.StreamConfig()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		return nil, fmt.Errorf("job %q: encode spec: %w", spec.Name, err)
	}
	j := &Job{
		spec:     spec,
		created:  time.Now(),
		ckptPath: r.checkpointPath(spec.Name),
		ckptMax:  r.maxFrames,
		specJSON: specJSON,
	}
	if len(spec.Names) > 0 {
		j.names = append([]string(nil), spec.Names...)
	} else {
		j.names = defaultNames(spec.K)
	}

	cp, frames, err := r.recoverCheckpoint(spec.Name)
	if err != nil {
		return nil, err
	}
	j.ckptFrames = frames
	if cp != nil {
		var persisted Spec
		if err := json.Unmarshal(cp.Config, &persisted); err != nil {
			return nil, fmt.Errorf("job %q: checkpoint config payload: %w", spec.Name, err)
		}
		persisted.normalize()
		if err := spec.identityMatches(&persisted); err != nil {
			return nil, err
		}
		if spec.Star {
			j.epoch, err = stream.RestoreEpochAccumulator(cfg, 0, cp.State)
			j.acc = j.epoch
		} else {
			j.acc, err = stream.RestoreAccumulator(cfg, cp.State)
		}
		if err != nil {
			return nil, fmt.Errorf("job %q: restore: %w", spec.Name, err)
		}
		j.ckptGen = cp.Gen
		r.logger.Info("job restored", "job", spec.Name, "gen", cp.Gen, "distinct", cp.State.State.Distinct)
	} else if spec.Star {
		j.epoch, err = stream.NewEpochAccumulator(cfg, 0)
		j.acc = j.epoch
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", spec.Name, err)
		}
	} else {
		j.acc, err = stream.NewAccumulator(cfg)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", spec.Name, err)
		}
	}
	return j, nil
}

// recoverCheckpoint returns the last intact frame of the job's checkpoint
// file plus how many intact frames it holds (nil/0 when durability is off,
// the file is absent, or no frame verifies), cutting any torn tail.
func (r *Registry) recoverCheckpoint(name string) (*wire.Checkpoint, int, error) {
	path := r.checkpointPath(name)
	if path == "" {
		return nil, 0, nil
	}
	cp, frames, tail, err := cutTornTail(path)
	if err != nil {
		return nil, 0, fmt.Errorf("job %q: %w", name, err)
	}
	if tail > 0 {
		r.logger.Warn("checkpoint tail discarded", "job", name, "tail_bytes", tail)
	}
	return cp, frames, nil
}

// cutTornTail scans the checkpoint file at path and truncates whatever
// trails its last intact frame — a frame torn by a crash or a failed
// append. It returns that frame, the intact frame count and the bytes cut;
// an absent file has none of them.
func cutTornTail(path string) (*wire.Checkpoint, int, int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("read checkpoint file: %w", err)
	}
	cp, frames, tail := wire.ScanCheckpoints(data)
	if tail > 0 {
		if err := os.Truncate(path, int64(len(data)-tail)); err != nil {
			return nil, 0, 0, fmt.Errorf("truncate torn checkpoint tail: %w", err)
		}
	}
	return cp, frames, tail, nil
}

// RestoreAll creates a job for every checkpoint file in the registry's
// directory whose name is not already registered, each restored under the
// spec persisted inside its newest frame — the -restore-jobs boot path, so
// named jobs come back without a POST /jobs re-create. Files with no intact
// frame are skipped with a warning (nothing to restore); files whose names
// are not valid job names are ignored. Returns the restored jobs.
func (r *Registry) RestoreAll() ([]*Job, error) {
	if r.dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("job: scan checkpoint dir: %w", err)
	}
	var restored []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".ckpt")
		if !ValidName(name) {
			r.logger.Warn("checkpoint file name is not a job name, skipped", "file", e.Name())
			continue
		}
		if _, err := r.Get(name); err == nil {
			continue
		}
		cp, _, err := r.recoverCheckpoint(name)
		if err != nil {
			return restored, err
		}
		if cp == nil {
			r.logger.Warn("checkpoint file has no intact frame, not restored", "job", name)
			continue
		}
		var spec Spec
		if err := json.Unmarshal(cp.Config, &spec); err != nil {
			return restored, fmt.Errorf("job %q: checkpoint config payload: %w", name, err)
		}
		// The file location is authoritative for the name; the persisted
		// spec supplies everything else.
		spec.Name = name
		j, err := r.Create(spec)
		if err != nil {
			return restored, err
		}
		restored = append(restored, j)
	}
	return restored, nil
}

// Adopt registers a pre-built job around an existing accumulator — the merge
// coordinator's read-only pool, whose durable state lives on the workers.
// Adopted jobs are served and observed like any other but are skipped by
// checkpointing (no checkpoint path; a Pool is not a FullExporter either).
func (r *Registry) Adopt(spec Spec, acc stream.Ingester, names []string) (*Job, error) {
	spec.normalize()
	if !ValidName(spec.Name) {
		return nil, fmt.Errorf("job: name %q is not a filename-safe identifier", spec.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.jobs[spec.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, spec.Name)
	}
	j := &Job{spec: spec, acc: acc, created: time.Now()}
	j.epoch, _ = acc.(*stream.EpochAccumulator)
	if len(names) > 0 {
		j.names = append([]string(nil), names...)
	} else {
		j.names = defaultNames(spec.K)
	}
	r.jobs[spec.Name] = j
	return j, nil
}

// Get looks a job up by name.
func (r *Registry) Get(name string) (*Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return j, nil
}

// List returns all jobs sorted by name.
func (r *Registry) List() []*Job {
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].spec.Name < jobs[k].spec.Name })
	return jobs
}

// Delete unregisters a job and removes its checkpoint file — deletion
// discards the stream, durably. A job with a running crawl cannot be
// deleted (ErrCrawlRunning); wait for it or let it finish.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	j, ok := r.jobs[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if j.CrawlRunning() {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrCrawlRunning, name)
	}
	delete(r.jobs, name)
	r.mu.Unlock()

	j.closeLocals()
	j.closeCheckpoint()
	if j.ckptPath != "" {
		if err := os.Remove(j.ckptPath); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("job %q: remove checkpoint file: %w", name, err)
		}
	}
	r.logger.Info("job deleted", "job", name)
	return nil
}

// CheckpointAll checkpoints every job whose state advanced, returning how
// many frames were written. Per-job errors are logged and do not stop the
// sweep; the first one is returned.
func (r *Registry) CheckpointAll() (written int, firstErr error) {
	for _, j := range r.List() {
		ok, err := j.Checkpoint()
		if err != nil {
			r.logger.Error("checkpoint failed", "job", j.Name(), "err", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			written++
		}
	}
	return written, firstErr
}

// Start launches the periodic checkpoint ticker (no-op unless a directory
// and a positive interval are configured).
func (r *Registry) Start() {
	if r.dir == "" || r.interval <= 0 || r.tickStop != nil {
		return
	}
	r.tickStop = make(chan struct{})
	r.tickDone = make(chan struct{})
	go func() {
		defer close(r.tickDone)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.CheckpointAll()
			case <-r.tickStop:
				return
			}
		}
	}()
}

// Shutdown stops the ticker, writes one final checkpoint per job, and
// closes the checkpoint files. After Shutdown every acknowledged record is
// durable (when a checkpoint directory is configured).
func (r *Registry) Shutdown() error {
	if r.tickStop != nil {
		close(r.tickStop)
		<-r.tickDone
		r.tickStop, r.tickDone = nil, nil
	}
	_, err := r.CheckpointAll()
	for _, j := range r.List() {
		j.closeCheckpoint()
	}
	return err
}
