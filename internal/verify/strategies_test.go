package verify

import (
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/verify/gen"
)

// zooOptions are the options cmd/rana-verify sweeps with: the paper's
// hybrid pattern set at the tolerable interval under the optimized
// controller.
func zooOptions() sched.Options {
	return sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}
}

func TestCompareStrategiesOnZoo(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			r, err := CompareStrategies(net, cfg, zooOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Error(r)
			}
			if r.PrunedEvaluated > r.ExhaustiveEvaluated {
				t.Errorf("pruned evaluated %d, exhaustive %d", r.PrunedEvaluated, r.ExhaustiveEvaluated)
			}
			t.Logf("%s", r)
		})
	}
}

// axesOpenOptions are zooOptions with the RTC traversal ladder and every
// data mapping open: the search where the exact evaluator prices each
// mapping cell from its coordinate's shared analysis.
func axesOpenOptions() sched.Options {
	o := zooOptions()
	o.Traversal, o.Mapping = "rtc", "all"
	return o
}

func TestCompareStrategiesOnZooAxesOpen(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			r, err := CompareStrategies(net, cfg, axesOpenOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Error(r)
			}
		})
	}
}

func TestCompareStrategiesOnGeneratedNetworks(t *testing.T) {
	// Small random networks over random accelerators: some layers are
	// unschedulable on the drawn config, which exercises the oracle's
	// error-agreement arm alongside the byte-equality arm.
	g := gen.New(5)
	const nets = 25
	for i := 0; i < nets; i++ {
		cfg := g.Config()
		net := models.Network{Name: "gen"}
		for j := 0; j < 1+i%3; j++ {
			net.Layers = append(net.Layers, g.TinyLayer())
		}
		r, err := CompareStrategies(net, cfg, zooOptions())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !r.OK() {
			t.Errorf("case %d on %s:\n%s", i, cfg.Name, r)
		}
	}
}

func TestCompareStrategiesFlagsABrokenBound(t *testing.T) {
	// Sanity on the oracle itself: with the exploration intact the
	// report is clean, so a synthetic divergence must come from the
	// accounting arms. Force one by comparing two different networks'
	// encodings through the exported surface — a network whose pruned
	// schedule legitimately differs cannot be constructed without
	// breaking the bound, so instead check the report machinery renders
	// divergences at all.
	r := &StrategyReport{Network: "x"}
	r.diverge("strategy/plan-bytes", "exhaustive", "pruned", "a", "b")
	if r.OK() {
		t.Fatal("report with a divergence claims OK")
	}
	if s := r.String(); s == "" {
		t.Fatal("empty rendering")
	}
}
