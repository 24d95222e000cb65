package job

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catgraph"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestMemoSingleFlight has concurrent callers of one key build the value
// once and share it; a new key replaces the entry, and a failed build is
// not kept.
func TestMemoSingleFlight(t *testing.T) {
	var m memo[int, *int]
	var builds atomic.Int32
	build := func() (*int, error) {
		builds.Add(1)
		v := new(int)
		return v, nil
	}
	const callers = 16
	got := make([]*int, callers)
	var hits atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, hit, err := m.get(1, build)
			if err != nil {
				t.Error(err)
			}
			if hit {
				hits.Add(1)
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if builds.Load() != 1 || hits.Load() != callers-1 {
		t.Fatalf("%d builds and %d hits for %d callers of one key", builds.Load(), hits.Load(), callers)
	}
	for _, v := range got {
		if v != got[0] {
			t.Fatal("callers of one key got different values")
		}
	}
	if v, hit, _ := m.get(2, build); hit || v == got[0] || builds.Load() != 2 {
		t.Fatal("a new key did not build a new value")
	}
	if _, hit, _ := m.get(1, build); hit {
		t.Fatal("an entry replaced by another key was still served")
	}

	boom := errors.New("boom")
	if _, _, err := m.get(3, func() (*int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed build returned %v", err)
	}
	if v, hit, err := m.get(3, build); hit || err != nil || v == nil {
		t.Fatalf("a failed build was kept: hit %v, err %v", hit, err)
	}
}

// TestSumsGzipOnce checks that the gzip /sums body inflates to the raw one,
// which is a fresh encode of the job's export, and that reads at one
// generation encode and compress once.
func TestSumsGzipOnce(t *testing.T) {
	r, err := NewRegistry("", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Create(testSpec("sums", 1))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, j, 0, 300)

	gz, hit, err := j.Sums(true)
	if err != nil || hit {
		t.Fatalf("first gzip read: hit %v, err %v", hit, err)
	}
	again, hit, err := j.Sums(true)
	if err != nil || !hit || &again[0] != &gz[0] {
		t.Fatalf("second gzip read at one generation compressed again (hit %v, err %v)", hit, err)
	}
	raw, hit, err := j.Sums(false)
	if err != nil || !hit {
		t.Fatalf("raw read after gzip reads: hit %v, err %v", hit, err)
	}
	inflated := gunzip(t, gz)
	st, err := j.Acc().Export()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := wire.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inflated, raw) || !bytes.Equal(raw, fresh) {
		t.Fatal("the gzip body does not inflate to the raw body, or the raw body is not a fresh encode")
	}

	ingestRange(t, j, 300, 301)
	next, hit, err := j.Sums(true)
	if err != nil || hit {
		t.Fatalf("gzip read after an ingest: hit %v, err %v", hit, err)
	}
	dec, err := wire.Decode(gunzip(t, next))
	if err != nil || dec.Gen != st.Gen+1 {
		t.Fatalf("gzip body after an ingest: %v; want gen %d", err, st.Gen+1)
	}
}

func gunzip(t *testing.T, body []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEstimateBodyPerSnapshot checks that the job renders one /estimate
// body per (snapshot, interval options): repeat reads are hits, other
// options and a new generation render again, and concurrent readers
// render once.
func TestEstimateBodyPerSnapshot(t *testing.T) {
	r, err := NewRegistry("", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Create(testSpec("est", 2))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, j, 0, 200)
	var renders atomic.Int32
	render := func(snap *stream.Snapshot, cg *catgraph.Graph) ([]byte, error) {
		renders.Add(1)
		return []byte{byte(snap.Seq)}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := j.Estimate(0.95, true, render); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := renders.Load(); n != 1 {
		t.Fatalf("8 concurrent readers rendered %d bodies", n)
	}
	if _, hit, _ := j.Estimate(0.9, true, render); hit {
		t.Fatal("another CI level was served the cached body")
	}
	ingestRange(t, j, 200, 201)
	body, hit, err := j.Estimate(0.9, true, render)
	if err != nil || hit || body[0] != 2 {
		t.Fatalf("after an ingest: body %v, hit %v, err %v; want a render of snapshot 2", body, hit, err)
	}
}
