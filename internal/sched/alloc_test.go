package sched

// Allocation-regression gates for the pooled compile path. Two steady
// states must stay allocation-free:
//
//   - the warm-memo compile: every layer served from a shared Memo's
//     completed entries through the peek pass;
//   - the steady-state explore loop: an un-memoized sequential compile
//     whose scratch (explore arenas, bound, pricing contexts, prefix
//     memo, compile state) is all pooled.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 and does a warmup run, so
// the pools are primed before counting. The gates are skipped under the
// race detector, whose instrumentation allocates on its own.

import (
	"context"
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
)

// allocGateAxes are the axis settings every allocation gate runs under:
// the default axes, and the traversal and mapping axes open (the RTC
// ladder × every mapping policy), the compile that sets ranad's tail.
// The default-axes subtests are named by network alone, the open-axes
// ones "rtc-all/<network>".
var allocGateAxes = []struct{ prefix, traversal, mapping string }{
	{"", "", ""},
	{"rtc-all/", "rtc", "all"},
}

// TestWarmMemoCompileAllocFree gates the whole zoo, not one small net:
// AlexNet's 5 layers hid a Network.Validate map that only heap-allocated
// past 8 layers.
func TestWarmMemoCompileAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	for _, ax := range allocGateAxes {
		for _, net := range models.Benchmarks() {
			t.Run(ax.prefix+net.Name, func(t *testing.T) {
				opts := ranaOpts()
				opts.Traversal, opts.Mapping = ax.traversal, ax.mapping
				opts.Memo = NewMemo(0)
				opts.Prefix = NewPrefixMemo(0)
				opts.Parallelism = 1

				var p Plan
				if _, err := ExploreNetworkInto(ctx, net, cfg, opts, &p); err != nil {
					t.Fatal(err)
				}
				warm := p
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := ExploreNetworkInto(ctx, net, cfg, opts, &p); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("warm-memo compile allocated %.1f objects/op, want 0", allocs)
				}
				if len(p.Layers) != len(warm.Layers) {
					t.Fatalf("warm compile produced %d layers, want %d", len(p.Layers), len(warm.Layers))
				}
				for i := range p.Layers {
					if p.Layers[i] != warm.Layers[i] {
						t.Fatalf("layer %d drifted between warm compiles", i)
					}
				}
			})
		}
	}
}

func TestSteadyStateExploreAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	cfg := hw.TestAcceleratorEDRAM()
	ctx := context.Background()
	for _, ax := range allocGateAxes {
		for _, net := range models.Benchmarks() {
			t.Run(ax.prefix+net.Name, func(t *testing.T) {
				opts := ranaOpts()
				opts.Traversal, opts.Mapping = ax.traversal, ax.mapping
				opts.DisableMemo = true
				opts.Parallelism = 1

				var p Plan
				if _, err := ExploreNetworkInto(ctx, net, cfg, opts, &p); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := ExploreNetworkInto(ctx, net, cfg, opts, &p); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("steady-state explore compile allocated %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
}
