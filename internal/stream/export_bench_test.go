package stream

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sample"
	"repro/internal/uncert"
)

// BenchmarkExportDuringIngest measures the ingest path's latency tail while
// concurrent exporters continuously pull State copies — the serving-daemon
// situation where /sums polling (a merge coordinator) or checkpointing runs
// against live ingest. The p99-ns metric is the point of the benchmark: a
// deep copy of the B=200 replicate grids taken while holding the publish
// mutex stalls every ingest for the whole copy, which the two-phase export
// (allocate outside the lock, memcpy inside) keeps off the tail.
func BenchmarkExportDuringIngest(b *testing.B) {
	const k, B = 20, 200
	cfg := Config{K: k, Star: true, Replicates: uncert.Config{B: B, Seed: 1}}
	for _, mode := range []string{"single", "epoch"} {
		for _, exporters := range []int{0, 2} {
			b.Run(fmt.Sprintf("%s/exporters=%d", mode, exporters), func(b *testing.B) {
				var acc Ingester
				var err error
				if mode == "single" {
					acc, err = NewAccumulator(cfg)
				} else {
					acc, err = NewEpochAccumulator(cfg, 64)
				}
				if err != nil {
					b.Fatal(err)
				}
				// Populate the pair tables and replicate grids so every
				// export copies a realistic amount of state.
				var one [1]sample.NodeObservation
				for i := 0; i < 4000; i++ {
					one[0] = benchObs(int32(i % 1000))
					if _, err := acc.IngestBatch(one[:]); err != nil {
						b.Fatal(err)
					}
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for e := 0; e < exporters; e++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if _, err := acc.Export(); err != nil {
								panic(err)
							}
						}
					}()
				}
				lat := make([]time.Duration, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					one[0] = benchObs(int32(i % 1000))
					t0 := time.Now()
					if _, err := acc.IngestBatch(one[:]); err != nil {
						b.Fatal(err)
					}
					lat[i] = time.Since(t0)
				}
				b.StopTimer()
				close(stop)
				wg.Wait()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(lat[len(lat)*50/100]), "p50-ns")
				b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
			})
		}
	}
}

// benchObs builds a star observation of one node with a few categorized
// neighbors, cycling categories so the pair tables fill out.
func benchObs(node int32) sample.NodeObservation {
	c := node % 20
	return sample.NodeObservation{
		Node:   node,
		Cat:    c,
		Deg:    5,
		NbrCat: []int32{(c + 1) % 20, (c + 3) % 20},
		NbrCnt: []float64{3, 2},
	}
}
