package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesSnapshot drives the full flow on the cheapest model and
// checks the emitted document carries every field the trajectory
// comparison needs.
func TestRunWritesSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_sched.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-models", "AlexNet", "-iters", "1", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("invalid snapshot JSON: %v", err)
	}
	if len(snap.Networks) != 2 || snap.Networks[0].Model != "AlexNet" || snap.Networks[1].Model != "AlexNet" {
		t.Fatalf("networks = %+v, want two AlexNet entries", snap.Networks)
	}
	if ax := snap.Networks[1]; ax.Axes != openAxes || ax.Optimized.Workers != 1 || ax.Warm.Workers != 1 || ax.Optimized.Evaluated <= 0 {
		t.Fatalf("axes-open cell = %+v, want %q at one worker", ax, openAxes)
	}
	nb := snap.Networks[0]
	if nb.Baseline.NsPerOp <= 0 || nb.Optimized.NsPerOp <= 0 {
		t.Fatalf("missing timings: %+v", nb)
	}
	if nb.Baseline.Evaluated <= 0 {
		t.Fatalf("baseline evaluated = %d, want > 0", nb.Baseline.Evaluated)
	}
	if nb.Baseline.MemoHits != 0 || nb.Baseline.MemoMisses != 0 {
		t.Fatalf("baseline must not touch the memo: %+v", nb.Baseline)
	}
	if nb.Optimized.MemoMisses <= 0 {
		t.Fatalf("optimized memo misses = %d, want > 0", nb.Optimized.MemoMisses)
	}
	if nb.Baseline.Workers != 1 || nb.Optimized.Workers < 1 {
		t.Fatalf("workers: baseline %d, optimized %d", nb.Baseline.Workers, nb.Optimized.Workers)
	}
	if nb.SpeedupX <= 0 {
		t.Fatalf("speedup = %v, want > 0", nb.SpeedupX)
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Fatalf("stdout missing confirmation: %q", stdout.String())
	}
}

// TestRunFlagErrors covers the exit-2 validation paths.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-iters", "0"},
		{"-models", "NopeNet"},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestRegressFailsOnPricingWorkGrowth: candidates_evaluated is
// deterministic on one worker, so any growth there hard-fails the gate,
// while the same growth on a multi-worker run (where pruning depends on
// timing) and a shrink on one worker both pass.
func TestRegressFailsOnPricingWorkGrowth(t *testing.T) {
	cell := func(evaluated, workers int) Snapshot {
		run := Run{Evaluated: evaluated, Workers: workers}
		return Snapshot{Networks: []NetBench{{Model: "AlexNet", Axes: openAxes, Baseline: run, Optimized: run, Warm: run}}}
	}
	prior := filepath.Join(t.TempDir(), "prior.json")
	raw, err := json.Marshal(cell(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prior, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name               string
		evaluated, workers int
		fails              int
	}{
		{"grown on one worker", 101, 1, 3},
		{"equal on one worker", 100, 1, 0},
		{"shrunk on one worker", 60, 1, 0},
		{"grown on two workers", 140, 2, 0},
	} {
		var stdout bytes.Buffer
		snap := cell(c.evaluated, c.workers)
		fails, err := checkRegression(&stdout, prior, &snap)
		if err != nil {
			t.Fatal(err)
		}
		if fails != c.fails {
			t.Errorf("%s: %d failures, want %d (output %q)", c.name, fails, c.fails, stdout.String())
		}
		if c.fails > 0 && !strings.Contains(stdout.String(), "FAIL AlexNet/rtc/all/optimized: candidates_evaluated 100 -> 101") {
			t.Errorf("%s: report %q does not name the cell and counts", c.name, stdout.String())
		}
	}
}
