// Differential tests for the exact evaluator's per-coordinate reuse:
// the search prices each mapping cell from the analysis of its (kind,
// tiling, point, traversal) coordinate, kept in the scratch Outcome
// from the previous call. Driven cell by cell in scan order, with and
// without the gaps pruning leaves, every result must equal the
// stateless evaluation field for field. External test package: the
// generated cases come from internal/verify/gen, which imports sched.
package sched_test

import (
	"fmt"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/verify/gen"
)

// reuseGaps are the cell-skipping patterns the reuse is driven through:
// no gaps, every mapping-1 cell skipped (no coordinate is ever reused),
// every mapping-0 cell skipped (each coordinate is first met at its
// second mapping), and a scattered pattern like a pruned scan's.
var reuseGaps = []struct {
	name string
	skip func(i int) bool
}{
	{"dense", func(int) bool { return false }},
	{"skip-odd", func(i int) bool { return i%2 == 1 }},
	{"skip-even", func(i int) bool { return i%2 == 0 }},
	{"scattered", func(i int) bool { return (uint64(i)*0x9E3779B97F4A7C15)>>61 < 3 }},
}

// axesOpen returns opts with the RTC ladder and every mapping open.
func axesOpen(opts sched.Options) sched.Options {
	opts.Traversal, opts.Mapping = "rtc", "all"
	return opts
}

func checkReuse(t *testing.T, name string, l models.ConvLayer, cfg hw.Config, opts sched.Options, gap int) {
	t.Helper()
	g := reuseGaps[gap]
	n, err := sched.CheckEvaluatorReuseForTest(l, cfg, opts, g.skip)
	if err != nil {
		t.Fatalf("%s (%+v), %s gaps: %v", name, l, g.name, err)
	}
	if n == 0 {
		t.Fatalf("%s, %s gaps: no cell evaluated", name, g.name)
	}
}

// TestEvaluatorReuseOnZoo covers every zoo layer at the conventional
// 45 µs interval (where refresh flags and blocked traversals matter),
// rotating the gap pattern across layers to keep the sweep short.
func TestEvaluatorReuseOnZoo(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := axesOpen(sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 45 * time.Microsecond,
		Controller:      memctrl.Conventional{},
	})
	i := 0
	for _, net := range models.Benchmarks() {
		for _, l := range net.Layers {
			checkReuse(t, net.Name+"/"+l.Name, l, cfg, opts, i%len(reuseGaps))
			i++
		}
	}
}

// TestEvaluatorReuseOnGeneratedCases covers randomized layers (about a
// quarter grouped), accelerators and refresh settings, every gap
// pattern each. Every third case runs on the multi-point approx-dram
// backend with the traversal axis closed, so consecutive cells differ
// only in operating point and mapping and the point must be part of the
// reuse key.
func TestEvaluatorReuseOnGeneratedCases(t *testing.T) {
	r := gen.New(23)
	grouped := 0
	for i := 0; i < 30; i++ {
		c := r.Case()
		opts := axesOpen(c.Options)
		opts.Patterns = []pattern.Kind{pattern.ID, pattern.OD, pattern.WD}
		if i%3 == 0 {
			opts.Backend, opts.ErrorBudget = "approx-dram", 1
			opts.Traversal = ""
		}
		if c.Layer.Groups > 1 {
			grouped++
		}
		for gap := range reuseGaps {
			checkReuse(t, fmt.Sprintf("case %d", i), c.Layer, c.Config, opts, gap)
		}
	}
	if grouped == 0 {
		t.Fatal("no grouped layer generated; pick another seed")
	}
}
