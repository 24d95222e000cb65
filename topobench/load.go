package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// writeResult is what a closed-loop write phase observed.
type writeResult struct {
	sent     int // bodies sent, in body order (cycling when bodies run out)
	records  int // records the daemon acknowledged
	failed   int // requests that did not return 200
	firstErr error
	lat      latencies
	wall     time.Duration // first send to last acknowledgement
	cpu      float64       // generator CPU seconds during the phase
	acks     []ack         // acknowledged writes, in time order
}

// ack is one acknowledged write: when, since the phase started, and how
// many records it carried.
type ack struct {
	at      time.Duration
	records int
}

// rateChunks is how many consecutive parts of the acknowledgement sequence
// the write rate is measured over.
const rateChunks = 10

// chunkRates splits the acknowledgements into rateChunks consecutive parts
// of equal count and returns each part's records per second, measured from
// the previous part's last acknowledgement (the phase start for the first).
func (w *writeResult) chunkRates() []float64 {
	if len(w.acks) < rateChunks {
		return nil
	}
	rates := make([]float64, rateChunks)
	var from time.Duration
	for k := range rates {
		lo, hi := k*len(w.acks)/rateChunks, (k+1)*len(w.acks)/rateChunks
		n := 0
		for _, a := range w.acks[lo:hi] {
			n += a.records
		}
		to := w.acks[hi-1].at
		rates[k] = float64(n) / (to - from).Seconds()
		from = to
	}
	return rates
}

// rate is the median of the chunk rates, so that a stall of a second or
// two moves it less than it moves the phase average. A phase with fewer
// than rateChunks acknowledgements reports its average.
func (w *writeResult) rate() float64 {
	if r := w.chunkRates(); r != nil {
		return median(r)
	}
	return float64(w.records) / w.wall.Seconds()
}

// sentTimes is how many times body j was sent in a phase of n sends over
// nb bodies taken round-robin.
func sentTimes(j, n, nb int) int {
	t := n / nb
	if j < n%nb {
		t++
	}
	return t
}

// writeLoop runs a closed-loop write phase: each of writers goroutines sends
// its next body only after the previous one is acknowledged, until dur has
// passed (or, without cycle, the bodies run out). Bodies are taken in order
// from one shared counter starting at body offset, so the multiset sent is
// fixed by the send count. onFirstAck, when non-nil, runs once after the
// first acknowledgement. With reads non-nil, each writer also GETs every
// read path after each reads.every-th acknowledged write of its own, so the
// reads are timed while the daemon is busy ingesting.
func writeLoop(d *daemon, path, contentType string, bodies []body, offset, writers int, dur time.Duration, cycle bool, onFirstAck func(), reads *interleaved) *writeResult {
	var next atomic.Int64
	next.Store(int64(offset))
	var once sync.Once
	var mu sync.Mutex
	res := &writeResult{}
	var lastAck time.Time
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat latencies
			var acks []ack
			var records, failed int
			var firstErr error
			var last time.Time
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if !cycle && i >= len(bodies) {
					break
				}
				b := bodies[i%len(bodies)]
				t0 := time.Now()
				code, reply, err := d.do("POST", path, contentType, b.data)
				last = time.Now()
				lat.add(last.Sub(t0))
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("POST %s: HTTP %d: %.200s", path, code, reply)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				records += len(b.recs)
				acks = append(acks, ack{at: last.Sub(start), records: len(b.recs)})
				if onFirstAck != nil {
					once.Do(onFirstAck)
				}
				if reads != nil && len(acks)%reads.every == 0 {
					for _, p := range reads.paths {
						reads.res.get(d, p)
					}
				}
			}
			mu.Lock()
			res.lat.ms = append(res.lat.ms, lat.ms...)
			res.records += records
			res.failed += failed
			res.acks = append(res.acks, acks...)
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			if last.After(lastAck) {
				lastAck = last
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(res.acks, func(i, j int) bool { return res.acks[i].at < res.acks[j].at })
	res.sent = len(res.lat.ms)
	res.wall = lastAck.Sub(start)
	res.cpu = cpuSeconds() - cpu0
	return res
}

// interleaved configures the reads a write phase mixes in.
type interleaved struct {
	every int
	paths []string
	res   *readResult
}

// readResult holds the latencies of each read path of a read phase.
type readResult struct {
	mu       sync.Mutex
	lat      map[string]*latencies
	failed   int
	firstErr error
}

func newReadResult(paths ...string) *readResult {
	r := &readResult{lat: map[string]*latencies{}}
	for _, p := range paths {
		r.lat[p] = &latencies{}
	}
	return r
}

func (r *readResult) attempted() int {
	n := r.failed
	for _, l := range r.lat {
		n += len(l.ms)
	}
	return n
}

// get sends one GET and records its latency, or its failure.
func (r *readResult) get(d *daemon, path string) {
	t0 := time.Now()
	code, reply, err := d.do("GET", path, "", nil)
	el := time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %.200s", path, code, reply)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat[path].add(el)
}

// readLoop cycles GETs over paths until stop is closed (when stop is nil,
// each of readers goroutines makes exactly n passes). Only successful
// requests enter the latency sets.
func readLoop(d *daemon, paths []string, stop <-chan struct{}, n, readers int) *readResult {
	res := newReadResult(paths...)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; stop != nil || pass < n; pass++ {
				for _, p := range paths {
					if stop != nil {
						select {
						case <-stop:
							return
						default:
						}
					}
					res.get(d, p)
				}
			}
		}()
	}
	wg.Wait()
	return res
}
