package job

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"sync"

	"repro/internal/catgraph"
	"repro/internal/stream"
	"repro/internal/wire"
)

// The read layer. The accumulator publishes one snapshot per ingest
// generation (stream.Ingester.Snapshot), shared by HTTP readers and crawl
// checkpoints alike. The job keeps what the reads derive from it, one entry
// each: the category graph and the rendered /estimate body of the published
// snapshot, and the encoded /sums body, raw and gzip, of the current
// generation. Each is built by the first read that needs it, not at job
// creation, and replaced when the snapshot or generation moves on.

// memo is a one-entry single-flight cache: it holds the value built for the
// last key asked for. Concurrent callers with that key wait for one build
// instead of repeating it; the build runs outside the mutex.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	e  *memoEntry[K, V]
}

type memoEntry[K comparable, V any] struct {
	key   K
	ready chan struct{} // closed once val and err are set
	val   V
	err   error
}

// get returns the value for key, building it on a miss, and reports whether
// it was a hit (built, or being built, by another caller). A failed build
// is returned to the callers waiting on it and then dropped.
func (m *memo[K, V]) get(key K, build func() (V, error)) (V, bool, error) {
	m.mu.Lock()
	if e := m.e; e != nil && e.key == key {
		m.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &memoEntry[K, V]{key: key, ready: make(chan struct{})}
	m.e = e
	m.mu.Unlock()
	e.val, e.err = build()
	close(e.ready)
	if e.err != nil {
		m.mu.Lock()
		if m.e == e {
			m.e = nil
		}
		m.mu.Unlock()
	}
	return e.val, false, e.err
}

// estimateKey names one rendered /estimate body: the snapshot it renders
// and the interval options of the request.
type estimateKey struct {
	snap   *stream.Snapshot
	level  float64
	withCI bool
}

// sumsBody is the encoded export of one generation; gz, its gzip form, is
// compressed on the first read that asks for it.
type sumsBody struct {
	raw    []byte
	gzOnce sync.Once
	gz     []byte
}

// Estimate returns the /estimate body of the published snapshot for the
// given interval options, and whether it was cached. render builds the
// body on a miss; it must depend only on its arguments, level and withCI.
func (j *Job) Estimate(level float64, withCI bool, render func(*stream.Snapshot, *catgraph.Graph) ([]byte, error)) ([]byte, bool, error) {
	snap, err := j.acc.Snapshot()
	if err != nil {
		return nil, false, err
	}
	return j.estimate.get(estimateKey{snap, level, withCI}, func() ([]byte, error) {
		cg, _, err := j.graphOf(snap)
		if err != nil {
			return nil, err
		}
		return render(snap, cg)
	})
}

// Snapshot returns the published snapshot and its category-graph view.
func (j *Job) Snapshot() (*stream.Snapshot, *catgraph.Graph, error) {
	snap, err := j.acc.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	cg, _, err := j.graphOf(snap)
	return snap, cg, err
}

// CategoryGraph returns the category-graph view of the published snapshot,
// and whether it was cached.
func (j *Job) CategoryGraph() (*catgraph.Graph, bool, error) {
	snap, err := j.acc.Snapshot()
	if err != nil {
		return nil, false, err
	}
	return j.graphOf(snap)
}

// graphOf returns snap's category graph through the job's graph entry.
func (j *Job) graphOf(snap *stream.Snapshot) (*catgraph.Graph, bool, error) {
	return j.graph.get(snap, func() (*catgraph.Graph, error) {
		return catgraph.FromEstimate(snap.Result, j.names)
	})
}

// Sums returns the job's exported state in the internal/wire format, gzip
// compressed when compressed is set, and whether the body was cached. The
// entry is keyed on the generation read before the export, so a body never
// misses a record acknowledged before the call.
func (j *Job) Sums(compressed bool) ([]byte, bool, error) {
	b, hit, err := j.sums.get(j.acc.Gen(), func() (*sumsBody, error) {
		st, err := j.acc.Export()
		if err != nil {
			return nil, fmt.Errorf("export state: %w", err)
		}
		raw, err := wire.Encode(st)
		if err != nil {
			return nil, fmt.Errorf("encode state: %w", err)
		}
		return &sumsBody{raw: raw}, nil
	})
	if err != nil {
		return nil, false, err
	}
	if !compressed {
		return b.raw, hit, nil
	}
	// BestSpeed: every coordinator pull of a worker whose generation moved
	// compresses afresh, and the default level cost about 2.5× the time
	// for a body about 9% smaller.
	b.gzOnce.Do(func() {
		hit = false
		var buf bytes.Buffer
		// Neither call can fail: BestSpeed is a valid level, and writes
		// into a bytes.Buffer do not fail.
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		zw.Write(b.raw)
		zw.Close()
		b.gz = buf.Bytes()
	})
	return b.gz, hit, nil
}
