package main

import (
	"errors"
	"log/slog"
	"net"
	"testing"
	"time"
)

// defaultCLI is the command line with every flag at its registered default,
// as main leaves it after flag.Parse with no arguments.
func defaultCLI() cli {
	return cli{
		addr: ":8723", star: true, shards: 1, size: "auto", bootSeed: 1,
		demoDraws: 20000, demoSeed: 1,
		crawlWalkers: 4, crawlSampler: "RW", crawlEngine: "bootstrap",
		crawlLevel: 0.95, crawlMax: 200000, crawlCheck: 2000, crawlBurnIn: 1000, crawlSeed: 1,
		mergeInterval: 2 * time.Second, mergeTimeout: 2 * time.Second, mergeMaxStale: time.Minute,
		checkpointInterval: 30 * time.Second,
		logFormat:          "text", logLevel: "info",
	}
}

// TestRunRejectsInvalidFlags pins every flag combination the serve, crawl
// and merge modes refuse before they listen. The listen address is
// unusable, so a combination that slips through surfaces as a listen error
// instead of a daemon that never returns.
func TestRunRejectsInvalidFlags(t *testing.T) {
	prev := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prev) })

	serve := func(c *cli) { c.k = 3 }
	crawlMode := func(c *cli) { c.crawlMode = true }
	demo := func(c *cli) { c.demo = true }
	merge := func(c *cli) { c.k = 3; c.mergeFrom = "http://127.0.0.1:1" }
	cases := []struct {
		name string
		mode func(*cli)
		set  func(*cli)
	}{
		{"serve/negative bootstrap", serve, func(c *cli) { c.boot = -1 }},
		{"serve/negative qps", serve, func(c *cli) { c.qps = -1 }},
		{"serve/negative query cost", serve, func(c *cli) { c.queryCost = -time.Millisecond }},
		{"serve/zero checkpoint interval", serve, func(c *cli) { c.checkpointInterval = 0 }},
		{"serve/negative checkpoint max frames", serve, func(c *cli) { c.checkpointMaxF = -1 }},
		{"serve/restore jobs without dir", serve, func(c *cli) { c.restoreJobs = true }},
		{"serve/checkpoint max frames without dir", serve, func(c *cli) { c.checkpointMaxF = 3 }},
		{"serve/graph file without crawl", serve, func(c *cli) { c.graphFile = "g.pack" }},
		{"serve/qps without crawl", serve, func(c *cli) { c.qps = 10 }},
		{"serve/no categories", serve, func(c *cli) { c.k = 0 }},
		{"serve/zero shards", serve, func(c *cli) { c.shards = 0 }},
		{"serve/negative shards", serve, func(c *cli) { c.shards = -2 }},
		{"serve/induced epoch", serve, func(c *cli) { c.star = false; c.shards = 2 }},
		{"serve/bad size", serve, func(c *cli) { c.size = "bogus" }},
		{"serve/bad log format", serve, func(c *cli) { c.logFormat = "xml" }},

		{"crawl/negative bootstrap", crawlMode, func(c *cli) { c.boot = -1 }},
		{"crawl/negative qps", crawlMode, func(c *cli) { c.qps = -1 }},
		{"crawl/negative query cost", crawlMode, func(c *cli) { c.queryCost = -time.Millisecond }},
		{"crawl/zero checkpoint interval", crawlMode, func(c *cli) { c.checkpointInterval = 0 }},
		{"crawl/restore jobs without dir", crawlMode, func(c *cli) { c.restoreJobs = true }},
		{"crawl/zero shards", crawlMode, func(c *cli) { c.shards = 0 }},
		{"crawl/induced epoch", crawlMode, func(c *cli) { c.star = false; c.shards = 2 }},
		{"crawl/bad crawl cats", crawlMode, func(c *cli) { c.crawlCats = "1,x" }},
		{"crawl/missing graph file", crawlMode, func(c *cli) { c.graphFile = "does-not-exist.pack" }},
		{"demo/induced epoch", demo, func(c *cli) { c.star = false; c.shards = 2 }},
		{"demo/zero shards", demo, func(c *cli) { c.shards = 0 }},

		{"merge/with demo", merge, func(c *cli) { c.demo = true }},
		{"merge/with crawl", merge, func(c *cli) { c.crawlMode = true }},
		{"merge/with bootstrap", merge, func(c *cli) { c.boot = 5 }},
		{"merge/with shards", merge, func(c *cli) { c.shards = 2 }},
		{"merge/with checkpoint dir", merge, func(c *cli) { c.checkpointDir = t.TempDir() }},
		{"merge/no categories", merge, func(c *cli) { c.k = 0 }},
		{"merge/zero interval", merge, func(c *cli) { c.mergeInterval = 0 }},
		{"merge/negative interval", merge, func(c *cli) { c.mergeInterval = -time.Second }},
		{"merge/zero timeout", merge, func(c *cli) { c.mergeTimeout = 0 }},
		{"merge/zero max stale", merge, func(c *cli) { c.mergeMaxStale = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := defaultCLI()
			c.addr = "127.0.0.1:-1"
			c.logLevel = "error"
			tc.mode(&c)
			tc.set(&c)
			err := c.run()
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
