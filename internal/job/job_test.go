package job

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
)

// jobObs generates the deterministic observation stream shared by the
// durability tests: 31 distinct nodes over 4 categories with star data.
func jobObs(i int) sample.NodeObservation {
	node := int32(i % 31)
	c := node % 4
	obs := sample.NodeObservation{Node: node, Cat: c, Weight: 1 + float64(node%6)/5}
	if i%4 != 0 {
		obs.Deg = float64(3 + node%7)
		obs.NbrCat = []int32{(c + 1) % 4, (c + 2) % 4}
		obs.NbrCnt = []float64{2, 1}
	}
	return obs
}

// inducedObs is the induced counterpart of jobObs: the same nodes,
// categories and weights, where a node's first draw reports its edges to
// the two nodes before it and re-draws carry no peers.
func inducedObs(i int) sample.NodeObservation {
	node := int32(i % 31)
	obs := sample.NodeObservation{Node: node, Cat: node % 4, Weight: 1 + float64(node%6)/5}
	if i < 31 {
		for p := max(node-2, 0); p < node; p++ {
			obs.Peers = append(obs.Peers, p)
		}
	}
	return obs
}

func ingestRange(t *testing.T, j *Job, lo, hi int) {
	t.Helper()
	ingestObs(t, j, jobObs, lo, hi)
}

func ingestObs(t *testing.T, j *Job, obs func(int) sample.NodeObservation, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := j.Acc().Ingest(obs(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func testSpec(name string) Spec {
	return Spec{Name: name, K: 4, Star: true, N: 800, Bootstrap: 24, BootstrapSeed: 7}
}

func TestRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(Spec{Name: "bad name!", K: 2, Star: true}); err == nil {
		t.Error("created a job with a filename-hostile name")
	}
	if _, err := r.Create(Spec{Name: "nok", Star: true}); err == nil {
		t.Error("created a job with no categories")
	}
	a, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(testSpec("alpha")); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := r.Create(Spec{Name: "named", Names: []string{"x", "y", "z"}, Star: true}); err != nil {
		t.Fatal(err)
	}
	nj, _ := r.Get("named")
	if nj.Spec().K != 3 || nj.Names()[2] != "z" {
		t.Errorf("names did not derive k: k=%d names=%v", nj.Spec().K, nj.Names())
	}
	if got := a.Names(); len(got) != 4 || got[0] != "C0" {
		t.Errorf("default names = %v", got)
	}

	names := make([]string, 0, 2)
	for _, j := range r.List() {
		names = append(names, j.Name())
	}
	if strings.Join(names, ",") != "alpha,named" {
		t.Errorf("list = %v", names)
	}

	ingestRange(t, a, 0, 50)
	if ok, err := a.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	path := filepath.Join(dir, "alpha.ckpt")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	// Unchanged generation → no new frame.
	if ok, err := a.Checkpoint(); err != nil || ok {
		t.Fatalf("no-advance checkpoint: ok=%v err=%v", ok, err)
	}

	if err := r.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("delete left the checkpoint file behind: %v", err)
	}
	if _, err := r.Get("alpha"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
	if err := r.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResume is the package-level durability contract: kill the
// registry after a checkpoint, build a new one over the same directory, and
// the job resumes — generation, estimates and bootstrap replicates and CIs
// — within 1e-9 of a run that was never interrupted. Covered for the
// single-lock engine (an induced job), the epoch engine (a star job), and
// the cross-engine restart: a star checkpoint written by the single-lock
// engine, as every star job's was before the scenario picked the engine,
// resumes on the epoch engine.
func TestRestartResume(t *testing.T) {
	const cut, end = 150, 300
	induced := testSpec("alpha")
	induced.Star = false
	cases := []struct {
		name string
		spec Spec
		obs  func(int) sample.NodeObservation
		// adopt: the first life checkpoints an adopted single-lock
		// accumulator instead of a created job.
		adopt bool
	}{
		{"single", induced, inducedObs, false},
		{"epoch", testSpec("alpha"), jobObs, false},
		{"cross", testSpec("alpha"), jobObs, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			// The uninterrupted baseline.
			base, err := NewRegistry("", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := tc.spec
			ref.Name = "ref"
			bj, err := base.Create(ref)
			if err != nil {
				t.Fatal(err)
			}
			ingestObs(t, bj, tc.obs, 0, end)
			want, _, err := bj.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// First life: ingest the head, checkpoint via Shutdown.
			r1, err := NewRegistry(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			var j1 *Job
			if tc.adopt {
				j1 = adoptSingleLock(t, r1, tc.spec)
			} else if j1, err = r1.Create(tc.spec); err != nil {
				t.Fatal(err)
			}
			ingestObs(t, j1, tc.obs, 0, cut)
			if err := r1.Shutdown(); err != nil {
				t.Fatal(err)
			}

			// Second life: same directory, the engine Create picks.
			r2, err := NewRegistry(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := r2.Create(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, epoch := j2.Acc().(*stream.EpochAccumulator); epoch != tc.spec.Star {
				t.Fatalf("resumed star=%v job on %T", tc.spec.Star, j2.Acc())
			}
			if gen := j2.Acc().Gen(); gen != cut {
				t.Fatalf("restored gen = %d, want %d", gen, cut)
			}
			if ckGen, _ := j2.CheckpointStatus(); ckGen != cut {
				t.Fatalf("restored checkpoint gen = %d, want %d", ckGen, cut)
			}
			ingestObs(t, j2, tc.obs, cut, end)
			got, _, err := j2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			if got.Draws != want.Draws || got.Distinct != want.Distinct {
				t.Fatalf("draws/distinct: got %d/%d want %d/%d",
					got.Draws, got.Distinct, want.Draws, want.Distinct)
			}
			close := func(a, b float64) bool {
				if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
					return true
				}
				return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
			}
			if !close(got.PopEstimate, want.PopEstimate) {
				t.Errorf("pop estimate %.17g vs %.17g", got.PopEstimate, want.PopEstimate)
			}
			for c := range want.Result.Sizes {
				if !close(got.Result.Sizes[c], want.Result.Sizes[c]) {
					t.Errorf("size[%d] %.17g vs %.17g", c, got.Result.Sizes[c], want.Result.Sizes[c])
				}
			}
			if got.Boot == nil || want.Boot == nil {
				t.Fatal("a run lost its bootstrap replicates")
			}
			for c := range want.Boot.Sizes {
				for b := range want.Boot.Sizes[c] {
					if gb, wb := got.Boot.Sizes[c][b], want.Boot.Sizes[c][b]; !close(gb, wb) {
						t.Fatalf("boot size replicate [%d][%d] %.17g vs %.17g", c, b, gb, wb)
					}
				}
				gi, wi := got.Boot.SizeCI(c, 0.95), want.Boot.SizeCI(c, 0.95)
				if !close(gi.Lo, wi.Lo) || !close(gi.Hi, wi.Hi) {
					t.Errorf("size[%d] CI %v vs %v", c, gi, wi)
				}
				gi, wi = got.Boot.WithinCI(c, 0.95), want.Boot.WithinCI(c, 0.95)
				if !close(gi.Lo, wi.Lo) || !close(gi.Hi, wi.Hi) {
					t.Errorf("within[%d] CI %v vs %v", c, gi, wi)
				}
			}
			if err := r2.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// adoptSingleLock registers a single-lock accumulator for spec as an
// adopted job that checkpoints to the file a created job would use — the
// state a star job wrote when the single-lock engine served star jobs.
func adoptSingleLock(t *testing.T, r *Registry, spec Spec) *Job {
	t.Helper()
	spec.normalize()
	cfg, err := spec.StreamConfig()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Adopt(spec, acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.ckptPath = r.checkpointPath(spec.Name)
	if j.specJSON, err = json.Marshal(&spec); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestRestoreIdentityMismatch pins the compatibility rule: serving fields
// may change across a restart, identity fields may not.
func TestRestoreIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	r1, _ := NewRegistry(dir, 0, nil)
	j, err := r1.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, j, 0, 40)
	if err := r1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	bad := map[string]Spec{}
	s := testSpec("alpha")
	s.K = 5
	bad["k"] = s
	s = testSpec("alpha")
	s.Star = false
	bad["star"] = s
	s = testSpec("alpha")
	s.Bootstrap = 0
	bad["bootstrap-off"] = s
	s = testSpec("alpha")
	s.BootstrapSeed = 99
	bad["bootstrap-seed"] = s

	for name, spec := range bad {
		r, _ := NewRegistry(dir, 0, nil)
		if _, err := r.Create(spec); !errors.Is(err, ErrIdentity) {
			t.Errorf("%s: restore under an incompatible spec returned %v, want ErrIdentity", name, err)
		}
	}

	// Serving fields are free to change.
	ok := testSpec("alpha")
	ok.N = 123456
	ok.Size = "star"
	r, _ := NewRegistry(dir, 0, nil)
	if _, err := r.Create(ok); err != nil {
		t.Errorf("serving-field change rejected: %v", err)
	}
}

// TestTornTailTruncation writes garbage after the last intact frame (the
// crash-mid-append signature) and checks that Create both restores the
// intact frame and trims the file so the next append stays readable.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	r1, _ := NewRegistry(dir, 0, nil)
	j, err := r1.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, j, 0, 60)
	if err := r1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "alpha.ckpt")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-frame-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, _ := NewRegistry(dir, 0, nil)
	j2, err := r2.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if gen := j2.Acc().Gen(); gen != 60 {
		t.Fatalf("restored gen = %d, want 60", gen)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(intact) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(after), len(intact))
	}

	// The next cycle appends a readable second frame.
	ingestRange(t, j2, 60, 90)
	if ok, err := j2.Checkpoint(); err != nil || !ok {
		t.Fatalf("post-trim checkpoint: ok=%v err=%v", ok, err)
	}
	if err := r2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	r3, _ := NewRegistry(dir, 0, nil)
	j3, err := r3.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if gen := j3.Acc().Gen(); gen != 90 {
		t.Fatalf("second-cycle restore gen = %d, want 90", gen)
	}
}

// tearingFile wraps a checkpoint handle and fails one append, landing only
// the first half of the frame in the file: either the write itself comes up
// short and errors ("write"), or it reports success and the following Sync
// fails ("sync") — a writeback the kernel lost.
type tearingFile struct {
	appendFile
	mode   string
	failed bool
}

func (f *tearingFile) Write(p []byte) (int, error) {
	if f.failed {
		return f.appendFile.Write(p)
	}
	n, err := f.appendFile.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	if f.mode == "sync" {
		return len(p), nil
	}
	f.failed = true
	return n, errors.New("injected short write")
}

func (f *tearingFile) Sync() error {
	if f.mode == "sync" && !f.failed {
		f.failed = true
		return errors.New("injected sync error")
	}
	return f.appendFile.Sync()
}

// TestCheckpointAppendRollback fails the gen-200 append half way through
// and requires the gen-300 checkpoint that follows to survive a restart:
// the failed append's torn bytes are cut before the next frame goes in, so
// it does not land behind them, unreachable.
func TestCheckpointAppendRollback(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			r1, _ := NewRegistry(dir, 0, nil)
			j, err := r1.Create(testSpec("alpha"))
			if err != nil {
				t.Fatal(err)
			}
			ingestRange(t, j, 0, 100)
			if ok, err := j.Checkpoint(); err != nil || !ok {
				t.Fatalf("gen-100 checkpoint: ok=%v err=%v", ok, err)
			}
			j.ckptMu.Lock()
			j.ckptFile = &tearingFile{appendFile: j.ckptFile, mode: mode}
			j.ckptMu.Unlock()
			ingestRange(t, j, 100, 200)
			if ok, err := j.Checkpoint(); err == nil || ok {
				t.Fatalf("torn gen-200 checkpoint: ok=%v err=%v, want an error", ok, err)
			}
			ingestRange(t, j, 200, 300)
			if ok, err := j.Checkpoint(); err != nil || !ok {
				t.Fatalf("gen-300 checkpoint: ok=%v err=%v", ok, err)
			}
			if gen, _ := j.CheckpointStatus(); gen != 300 {
				t.Fatalf("CheckpointStatus gen = %d, want 300", gen)
			}
			if err := r1.Shutdown(); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(filepath.Join(dir, "alpha.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			last, frames, tail := wire.ScanCheckpoints(data)
			if last == nil || last.Gen != 300 || frames != 2 || tail != 0 {
				t.Fatalf("file holds %d intact frames and a %d-byte tail; want frames 100 and 300, no tail", frames, tail)
			}
			r2, _ := NewRegistry(dir, 0, nil)
			j2, err := r2.Create(testSpec("alpha"))
			if err != nil {
				t.Fatal(err)
			}
			if gen := j2.Acc().Gen(); gen != 300 {
				t.Fatalf("restored gen = %d, want 300", gen)
			}
		})
	}
}

// TestDeferredLocals covers the epoch job's pool of borrowed locals: a
// single-lock (induced) job lends none, and a local's records are published when the
// local is returned, so the pool only ever holds empty locals and the final
// checkpoint carries every record ingested through one.
func TestDeferredLocals(t *testing.T) {
	dir := t.TempDir()
	r, _ := NewRegistry(dir, 0, nil)
	j, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}

	solo := testSpec("solo")
	solo.Star = false
	single, _ := r.Create(solo)
	if single.TakeLocal() != nil {
		t.Error("single-lock job handed out a local")
	}

	l := j.TakeLocal()
	if l == nil {
		t.Fatal("epoch job refused a local")
	}
	for i := 0; i < 80; i++ {
		if err := l.Ingest(jobObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if gen := j.Acc().Gen(); gen != 0 {
		t.Fatalf("borrowed local already published gen %d", gen)
	}
	j.PutLocal(l)
	if gen := j.Acc().Gen(); gen != 80 {
		t.Fatalf("gen after PutLocal = %d, want 80", gen)
	}

	// The returned local is lent again, empty.
	if l2 := j.TakeLocal(); l2 != l || l2.Pending() != 0 {
		t.Fatalf("pool lent %p with %d pending, want the returned local %p empty", l2, l2.Pending(), l)
	}
	for i := 80; i < 100; i++ {
		if err := l.Ingest(jobObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.PutLocal(l)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRegistry(dir, 0, nil)
	j2, err := r2.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if gen := j2.Acc().Gen(); gen != 100 {
		t.Fatalf("restored gen = %d, want 100", gen)
	}
}

// TestPeriodicCheckpoint runs the registry ticker at a short interval and
// waits for a frame to appear without an explicit Checkpoint call.
func TestPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	ingestRange(t, j, 0, 30)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gen, _ := j.CheckpointStatus(); gen == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// gatedSource blocks every neighbor query until the gate opens — it keeps a
// test crawl verifiably "running" without timing assumptions.
type gatedSource struct {
	graph.Source
	gate    chan struct{}
	touched sync.WaitGroup
	once    sync.Once
}

func (g *gatedSource) Neighbors(v int32) []int32 {
	g.once.Do(g.touched.Done)
	<-g.gate
	return g.Source.Neighbors(v)
}

// TestCrawlSlots pins the per-job crawl rule: one crawl at a time within a
// job, independent crawls across jobs, and no deletion under a live crawl.
func TestCrawlSlots(t *testing.T) {
	g, err := gen.Social(randx.New(44), gen.SocialConfig{
		N: 300, MeanDeg: 8, Dist: gen.PowerLaw, Shape: 2.5,
		Comms: 4, CommZipf: 0.8, Mixing: 0.3, Connect: true, SetAsCats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewRegistry("", 0, nil)
	spec := Spec{Name: "a", K: g.NumCategories(), Star: true, N: float64(g.N())}
	a, err := r.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "b"
	b, err := r.Create(spec)
	if err != nil {
		t.Fatal(err)
	}

	cfg := crawl.Config{Walkers: 2, Star: true, N: float64(g.N()), Seed: 3, MaxDraws: 400, CheckEvery: 400}
	slow := &gatedSource{Source: g, gate: make(chan struct{})}
	slow.touched.Add(1)
	ca, err := a.StartCrawl(slow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow.touched.Wait() // the crawl is provably inside a walk now

	if _, err := a.StartCrawl(g, cfg); !errors.Is(err, ErrCrawlRunning) {
		t.Errorf("second crawl in job a: %v", err)
	}
	if err := r.Delete("a"); !errors.Is(err, ErrCrawlRunning) {
		t.Errorf("delete under live crawl: %v", err)
	}
	// A different job's slot is independent.
	cb, err := b.StartCrawl(g, cfg)
	if err != nil {
		t.Fatalf("concurrent crawl in job b: %v", err)
	}
	if _, err := cb.Wait(); err != nil {
		t.Fatal(err)
	}

	close(slow.gate)
	if _, err := ca.Wait(); err != nil {
		t.Fatal(err)
	}
	// Finished crawls free the slot and the job.
	if _, err := a.StartCrawl(g, cfg); err != nil {
		t.Errorf("slot not freed after Wait: %v", err)
	}
	if c := a.Crawl(); c == nil {
		t.Error("job lost its crawl handle")
	}
	<-a.Crawl().Done()
	if err := r.Delete("a"); err != nil {
		t.Errorf("delete after crawls done: %v", err)
	}
}

// TestAdoptSkipsCheckpoint: adopted jobs (the merge pool) serve and list
// like any other but are never checkpointed.
func TestAdoptSkipsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, _ := NewRegistry(dir, 0, nil)
	pool, err := stream.NewPool(stream.Config{K: 3, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Adopt(Spec{Name: DefaultName, K: 3, Star: true}, pool, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := j.Checkpoint(); err != nil || ok {
		t.Fatalf("adopted job checkpointed: ok=%v err=%v", ok, err)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, DefaultName+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("adopted job left a checkpoint file: %v", err)
	}
}

// TestCheckpointCompaction drives a job past the registry's frame limit and
// pins the whole compaction contract: the file shrinks to one frame, appends
// keep working afterwards (the O_APPEND handle is reopened, not left on the
// renamed-away inode), and a restore over the compacted file resumes at the
// exact generation.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetMaxFrames(3)
	j, err := r.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alpha.ckpt")

	frameCount := func() (frames int, gen uint64) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp, frames, tail := wire.ScanCheckpoints(data)
		if tail != 0 {
			t.Fatalf("checkpoint file has %d tail bytes", tail)
		}
		if cp != nil {
			gen = cp.Gen
		}
		return frames, gen
	}

	for round := 1; round <= 3; round++ {
		ingestRange(t, j, (round-1)*40, round*40)
		if ok, err := j.Checkpoint(); err != nil || !ok {
			t.Fatalf("round %d checkpoint: ok=%v err=%v", round, ok, err)
		}
		if frames, _ := frameCount(); frames != round {
			t.Fatalf("round %d: %d frames, want %d", round, frames, round)
		}
	}

	// The 4th frame crosses the limit: the file compacts to its newest frame.
	ingestRange(t, j, 120, 160)
	if ok, err := j.Checkpoint(); err != nil || !ok {
		t.Fatalf("triggering checkpoint: ok=%v err=%v", ok, err)
	}
	frames, gen := frameCount()
	if frames != 1 {
		t.Fatalf("after compaction: %d frames, want 1", frames)
	}
	if gen != 160 {
		t.Fatalf("surviving frame gen = %d, want 160", gen)
	}

	// The next append must land in the NEW file.
	ingestRange(t, j, 160, 200)
	if ok, err := j.Checkpoint(); err != nil || !ok {
		t.Fatalf("post-compaction checkpoint: ok=%v err=%v", ok, err)
	}
	if frames, gen = frameCount(); frames != 2 || gen != 200 {
		t.Fatalf("post-compaction append: %d frames at gen %d, want 2 at 200", frames, gen)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restore over the compacted file resumes exactly.
	r2, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if g := j2.Acc().Gen(); g != 200 {
		t.Fatalf("restored gen = %d, want 200", g)
	}
	// The restored frame count seeds the next compaction cycle.
	ingestRange(t, j2, 200, 240)
	if _, err := j2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if frames, gen = frameCount(); frames != 3 || gen != 240 {
		t.Fatalf("restored registry append: %d frames at gen %d, want 3 at 240", frames, gen)
	}
	if err := r2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAll pins the -restore-jobs boot path: every checkpoint file in
// the directory comes back as a job under its persisted spec, already
// registered names are skipped, and the restored streams match the
// originals exactly.
func TestRestoreAll(t *testing.T) {
	dir := t.TempDir()
	r1, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"alpha": testSpec("alpha"),
		"beta":  {Name: "beta", Names: []string{"w", "x", "y", "z"}, Star: true, Bootstrap: 8, BootstrapSeed: 3},
	}
	wantGen := map[string]uint64{"alpha": 90, "beta": 150}
	for name, spec := range specs {
		j, err := r1.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ingestRange(t, j, 0, int(wantGen[name]))
	}
	if err := r1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// A stray non-checkpoint file and an empty checkpoint file must both be
	// skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.ckpt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRegistry(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// "alpha" is already registered (the daemon's default-create path);
	// RestoreAll must only pick up what is missing.
	if _, err := r2.Create(testSpec("alpha")); err != nil {
		t.Fatal(err)
	}
	restored, err := r2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].Name() != "beta" {
		names := make([]string, 0, len(restored))
		for _, j := range restored {
			names = append(names, j.Name())
		}
		t.Fatalf("RestoreAll returned %v, want [beta]", names)
	}
	for name, gen := range wantGen {
		j, err := r2.Get(name)
		if err != nil {
			t.Fatalf("job %q not present after RestoreAll: %v", name, err)
		}
		if g := j.Acc().Gen(); g != gen {
			t.Fatalf("job %q restored at gen %d, want %d", name, g, gen)
		}
	}
	beta, _ := r2.Get("beta")
	if spec := beta.Spec(); spec.K != 4 || spec.Bootstrap != 8 || spec.BootstrapSeed != 3 || !spec.Star {
		t.Fatalf("beta restored under the wrong spec: %+v", spec)
	}
	if names := beta.Names(); len(names) != 4 || names[0] != "w" {
		t.Fatalf("beta names = %v", names)
	}
	// Idempotent: nothing new on a second sweep.
	again, err := r2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second RestoreAll restored %d jobs", len(again))
	}
	if err := r2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
