// Command topobench is the repository's end-to-end benchmark of the topoestd
// daemon. One invocation runs one workload against a freshly started daemon
// and prints, as its last stdout line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures a user of the daemon
// sees; with --trace 1 the same run is followed by an in-process replay of
// its exact inputs through each layer's public functions, and the metrics
// are the per-layer ledger. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds the daemon
// and this program first:
//
//	bash topobench/run.sh --workload star-binary-ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// layerMetric is one named measurement with its unit.
type layerMetric struct {
	name  string
	value float64
	unit  string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string      // failed correctness checks
	e2e               []layerMetric // end-to-end metrics
	layers            []layerMetric // per-layer metrics (traced run)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string
	dir      string // scratch directory of this run inside the checkout
	out      io.Writer
}

type workload struct {
	name string
	run  func(o *options) (*outcome, error)
}

var workloads = []workload{
	{"star-binary-ingest", runStarBinary},
	{"induced-json-rw", runInducedJSON},
	{"crawl-budget", runCrawlBudget},
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(2)
	}
	res, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseArgs(args []string) (*options, error) {
	o := &options{out: os.Stdout}
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	tr := fs.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	fs.StringVar(&o.daemon, "daemon", ".bench_build/bin/topoestd", "topoestd binary")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *tr != 0 && *tr != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *tr)
	}
	o.trace = *tr == 1
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(o *options) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	if err := os.MkdirAll(".bench_build/run", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build/run", o.workload+"-")
	if err != nil {
		return nil, err
	}
	o.dir = dir
	fmt.Fprintf(o.out, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	out, err := wl.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w (daemon logs in %s)", o.workload, err, dir)
	}
	os.RemoveAll(dir)

	failed := out.failed + len(out.problems)
	attempted := out.attempted + len(out.problems)
	for _, p := range out.problems {
		fmt.Fprintln(o.out, "CHECK FAILED:", p)
	}
	fmt.Fprintf(o.out, "error_rate %.6f (%d failed of %d attempted)\n",
		ratio(float64(failed), float64(attempted)), failed, attempted)
	ms := out.e2e
	if o.trace {
		ms = out.layers
	}
	res := &result{Correct: len(out.problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		if !validMetricName(m.name) {
			return nil, fmt.Errorf("invalid metric name %q", m.name)
		}
		if _, dup := res.Metrics[m.name]; dup {
			return nil, fmt.Errorf("metric %q reported twice", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	printMetrics(o.out, ms)
	return res, nil
}

func printMetrics(w io.Writer, ms []layerMetric) {
	sorted := append([]layerMetric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		fmt.Fprintf(w, "metric %-40s %16.6f %s\n", m.name, m.value, m.unit)
	}
}

// setupRounds is how many times a run starts the daemon and creates its
// job; setup_s is the median, and the last daemon serves the workload.
const setupRounds = 9

// setupDaemon starts the daemon setupRounds times (args(i) gives round i's
// flags), creates the job in each, and keeps the last one running.
func setupDaemon(o *options, args func(i int) []string, spec map[string]any, conns int) (*daemon, float64, error) {
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		// The free port the daemon is given can be taken by another process
		// before the daemon binds it; such a start is retried, untimed.
		var d *daemon
		var t0 time.Time
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			t0 = time.Now()
			if d, err = startDaemon(o.daemon, filepath.Join(o.dir, fmt.Sprintf("daemon-%d.log", i)), args(i), conns); err == nil {
				break
			}
		}
		if err != nil {
			return nil, 0, err
		}
		if err := d.doJSON("POST", "/jobs", spec, 201, nil); err != nil {
			d.stop()
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == setupRounds-1 {
			fmt.Fprintf(o.out, "setup: %d rounds, median %.4f s\n", setupRounds, median(secs))
			return d, median(secs), nil
		}
		d.stop()
	}
	panic("unreachable")
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mix derives an independent sub-seed for one input stream of a run.
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z ^= z >> 31
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 29
	return z
}
