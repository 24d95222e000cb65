package main

import (
	"bytes"
	"errors"
	"flag"
	"log/slog"
	"net"
	"os"
	"testing"
)

// parseCLI parses argv through the daemon's own flag set, as main does.
func parseCLI(t *testing.T, args ...string) *cli {
	t.Helper()
	fs := flag.NewFlagSet("topoestd", flag.ContinueOnError)
	c := newCLI(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHelpGolden pins the -h output: the flags, their types, defaults and
// usage texts, byte for byte.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("topoestd", flag.ContinueOnError)
	newCLI(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("-h output drifted from testdata/help.golden:\n%s", got.String())
	}
}

// TestRunRejectsInvalidFlags pins every flag combination the serve, crawl
// and merge modes refuse before they listen. The listen address is
// unusable, so a combination that slips through surfaces as a listen error
// instead of a daemon that never returns.
func TestRunRejectsInvalidFlags(t *testing.T) {
	prev := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prev) })

	serve := []string{"-k", "3"}
	crawlMode := []string{"-crawl"}
	demo := []string{"-demo"}
	merge := []string{"-k", "3", "-merge-from", "http://127.0.0.1:1"}
	cases := []struct {
		name string
		mode []string
		set  []string
	}{
		{"serve/negative bootstrap", serve, []string{"-bootstrap", "-1"}},
		{"serve/negative qps", serve, []string{"-qps", "-1"}},
		{"serve/negative query cost", serve, []string{"-query-cost", "-1ms"}},
		{"serve/zero checkpoint interval", serve, []string{"-checkpoint-interval", "0"}},
		{"serve/negative checkpoint max frames", serve, []string{"-checkpoint-max-frames", "-1"}},
		{"serve/restore jobs without dir", serve, []string{"-restore-jobs"}},
		{"serve/checkpoint max frames without dir", serve, []string{"-checkpoint-max-frames", "3"}},
		{"serve/graph file without crawl", serve, []string{"-graph-file", "g.pack"}},
		{"serve/qps without crawl", serve, []string{"-qps", "10"}},
		{"serve/no categories", serve, []string{"-k", "0"}},
		{"serve/zero shards", serve, []string{"-shards", "0"}},
		{"serve/negative shards", serve, []string{"-shards", "-2"}},
		{"serve/induced epoch", serve, []string{"-star=false", "-shards", "2"}},
		{"serve/bad size", serve, []string{"-size", "bogus"}},
		{"serve/bad log format", serve, []string{"-log-format", "xml"}},

		{"crawl/negative bootstrap", crawlMode, []string{"-bootstrap", "-1"}},
		{"crawl/negative qps", crawlMode, []string{"-qps", "-1"}},
		{"crawl/negative query cost", crawlMode, []string{"-query-cost", "-1ms"}},
		{"crawl/zero checkpoint interval", crawlMode, []string{"-checkpoint-interval", "0"}},
		{"crawl/restore jobs without dir", crawlMode, []string{"-restore-jobs"}},
		{"crawl/zero shards", crawlMode, []string{"-shards", "0"}},
		{"crawl/induced epoch", crawlMode, []string{"-star=false", "-shards", "2"}},
		{"crawl/bad crawl cats", crawlMode, []string{"-crawl-cats", "1,x"}},
		{"crawl/missing graph file", crawlMode, []string{"-graph-file", "does-not-exist.pack"}},
		{"demo/induced epoch", demo, []string{"-star=false", "-shards", "2"}},
		{"demo/zero shards", demo, []string{"-shards", "0"}},

		{"merge/with demo", merge, []string{"-demo"}},
		{"merge/with crawl", merge, []string{"-crawl"}},
		{"merge/with bootstrap", merge, []string{"-bootstrap", "5"}},
		{"merge/with shards", merge, []string{"-shards", "2"}},
		{"merge/with checkpoint dir", merge, []string{"-checkpoint-dir", t.TempDir()}},
		{"merge/no categories", merge, []string{"-k", "0"}},
		{"merge/zero interval", merge, []string{"-merge-interval", "0"}},
		{"merge/negative interval", merge, []string{"-merge-interval", "-1s"}},
		{"merge/zero timeout", merge, []string{"-merge-timeout", "0"}},
		{"merge/zero max stale", merge, []string{"-merge-max-stale", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:-1", "-log-level", "error"}, tc.mode...)
			err := parseCLI(t, append(args, tc.set...)...).run()
			var oe *net.OpError
			switch {
			case err == nil:
				t.Fatal("run returned nil")
			case errors.As(err, &oe) && oe.Op == "listen":
				t.Fatalf("run got as far as listening: %v", err)
			}
		})
	}
}
