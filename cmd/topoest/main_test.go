package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPipelineEndToEnd drives gen → sample → estimate → truth through the
// real subcommand entry points on temp files.
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.txt")
	cp := filepath.Join(dir, "c.txt")
	sp := filepath.Join(dir, "s.tsv")
	ep := filepath.Join(dir, "est.tsv")
	tp := filepath.Join(dir, "truth.tsv")

	if err := cmdGen([]string{"-model", "social", "-n", "2000", "-meandeg", "10",
		"-comms", "8", "-graph", gp, "-cats", cp, "-seed", "3"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdSample([]string{"-graph", gp, "-cats", cp, "-sampler", "rw",
		"-n", "4000", "-burnin", "200", "-out", sp, "-seed", "4"}); err != nil {
		t.Fatalf("sample: %v", err)
	}
	if err := cmdEstimate([]string{"-graph", gp, "-cats", cp, "-sample", sp,
		"-star", "-format", "tsv", "-out", ep}); err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if err := cmdTruth([]string{"-graph", gp, "-cats", cp, "-format", "tsv", "-out", tp}); err != nil {
		t.Fatalf("truth: %v", err)
	}
	est, err := os.ReadFile(ep)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := os.ReadFile(tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, content := range []string{string(est), string(truth)} {
		if !strings.Contains(content, "size\t") || !strings.Contains(content, "edge\t") {
			t.Fatalf("output missing size/edge rows:\n%.300s", content)
		}
	}
	// The estimate and the truth must broadly agree on the biggest
	// category size (within a factor 2 at |S| = 2·N draws).
	bigEst := largestSize(t, string(est))
	bigTruth := largestSize(t, string(truth))
	if bigEst < bigTruth/2 || bigEst > bigTruth*2 {
		t.Fatalf("largest estimated size %g vs true %g", bigEst, bigTruth)
	}
}

func largestSize(t *testing.T, tsv string) float64 {
	t.Helper()
	best := 0.0
	for _, line := range strings.Split(tsv, "\n") {
		if !strings.HasPrefix(line, "size\t") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v > best {
			best = v
		}
	}
	if best == 0 {
		t.Fatal("no size rows")
	}
	return best
}

func TestPipelineOtherSamplersAndFormats(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.txt")
	cp := filepath.Join(dir, "c.txt")
	if err := cmdGen([]string{"-model", "paper", "-k", "6", "-alpha", "0.3",
		"-graph", gp, "-cats", cp}); err != nil {
		// full paper model is big; fall back is not allowed — fail loudly
		t.Fatalf("gen paper: %v", err)
	}
	for _, sampler := range []string{"uis", "wisdeg", "mhrw", "swrw"} {
		sp := filepath.Join(dir, sampler+".tsv")
		if err := cmdSample([]string{"-graph", gp, "-cats", cp, "-sampler", sampler,
			"-n", "500", "-burnin", "50", "-out", sp}); err != nil {
			t.Fatalf("sample %s: %v", sampler, err)
		}
		op := filepath.Join(dir, sampler+".json")
		if err := cmdEstimate([]string{"-graph", gp, "-cats", cp, "-sample", sp,
			"-star", "-format", "json", "-out", op}); err != nil {
			t.Fatalf("estimate %s: %v", sampler, err)
		}
	}
	// induced scenario + dot output
	sp := filepath.Join(dir, "uis.tsv")
	if err := cmdEstimate([]string{"-graph", gp, "-cats", cp, "-sample", sp,
		"-star=false", "-format", "dot", "-out", filepath.Join(dir, "g.dot")}); err != nil {
		t.Fatalf("induced estimate: %v", err)
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	if err := cmdSample([]string{"-graph", filepath.Join(dir, "missing.txt"),
		"-cats", filepath.Join(dir, "missing2.txt")}); err == nil {
		t.Error("missing graph must fail")
	}
	if err := cmdGen([]string{"-model", "nope", "-graph", filepath.Join(dir, "g.txt"),
		"-cats", filepath.Join(dir, "c.txt")}); err == nil {
		t.Error("unknown model must fail")
	}
}

// TestEstimateRejectsBadSample checks that a sample naming a node outside
// the graph makes estimate return an error naming the draw, not panic.
func TestEstimateRejectsBadSample(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.txt")
	cp := filepath.Join(dir, "c.txt")
	sp := filepath.Join(dir, "s.tsv")
	if err := cmdGen([]string{"-model", "social", "-n", "300", "-meandeg", "6",
		"-comms", "4", "-graph", gp, "-cats", cp, "-seed", "5"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := os.WriteFile(sp, []byte("1\t1\n999999\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, star := range []string{"-star", "-star=false"} {
		err := cmdEstimate([]string{"-graph", gp, "-cats", cp, "-sample", sp, star,
			"-out", filepath.Join(dir, "est.tsv")})
		if err == nil || !strings.Contains(err.Error(), "draw 1 names node 999999") {
			t.Fatalf("estimate %s: %v, want an error naming draw 1", star, err)
		}
	}
}

func TestEvalSubcommand(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.txt")
	cp := filepath.Join(dir, "c.txt")
	if err := cmdGen([]string{"-model", "social", "-n", "1200", "-meandeg", "8",
		"-comms", "6", "-graph", gp, "-cats", cp, "-seed", "5"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	op := filepath.Join(dir, "eval.tsv")
	if err := cmdEval([]string{"-graph", gp, "-cats", cp, "-sampler", "frontier",
		"-sizes", "100,400", "-reps", "4", "-out", op}); err != nil {
		t.Fatalf("eval: %v", err)
	}
	data, err := os.ReadFile(op)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "frontier star size") {
		t.Fatalf("eval output missing series:\n%s", data)
	}
	if err := cmdEval([]string{"-graph", gp, "-cats", cp, "-sizes", "x"}); err == nil {
		t.Error("bad size grid must fail")
	}
	if err := cmdEval([]string{"-graph", gp, "-cats", cp, "-sampler", "nope",
		"-sizes", "50", "-reps", "2"}); err == nil {
		t.Error("unknown sampler must fail")
	}
}

func TestEstimateWithBootstrapCI(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.txt")
	cp := filepath.Join(dir, "c.txt")
	sp := filepath.Join(dir, "s.tsv")
	if err := cmdGen([]string{"-model", "social", "-n", "1000", "-meandeg", "8",
		"-comms", "5", "-graph", gp, "-cats", cp, "-seed", "7"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdSample([]string{"-graph", gp, "-cats", cp, "-sampler", "uis",
		"-n", "600", "-out", sp, "-seed", "8"}); err != nil {
		t.Fatalf("sample: %v", err)
	}
	if err := cmdEstimate([]string{"-graph", gp, "-cats", cp, "-sample", sp,
		"-star", "-ci", "50", "-format", "tsv", "-out", filepath.Join(dir, "e.tsv")}); err != nil {
		t.Fatalf("estimate with ci: %v", err)
	}
}
