package verify

import (
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/verify/gen"
)

// TestCompareIncrementalOnZoo is the incremental-pricing acceptance
// check: across the benchmark zoo, pruned schedules with incremental
// bound pricing enabled must reproduce the stateless-bound reference
// byte-for-byte, sequentially and in parallel, with identical
// per-layer work accounting.
func TestCompareIncrementalOnZoo(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			r, err := CompareIncremental(net, cfg, zooOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Error(r)
			}
			t.Logf("%s", r)
		})
	}
}

// TestCompareIncrementalWithAxes re-runs the oracle with the operating
// point, traversal and mapping axes open, where the pricing context's
// per-cell branch (blocked-ID DDR, per-map tables) actually exercises.
func TestCompareIncrementalWithAxes(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := zooOptions()
	opts.Traversal = "rtc"
	opts.Mapping = "all"
	net := models.AlexNet()
	r, err := CompareIncremental(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Error(r)
	}
}

// TestCompareIncrementalOnGeneratedNetworks exercises the error-agreement
// arm: unschedulable random layers must be rejected identically with
// incremental pricing on and off.
func TestCompareIncrementalOnGeneratedNetworks(t *testing.T) {
	g := gen.New(11)
	const nets = 10
	for i := 0; i < nets; i++ {
		cfg := g.Config()
		net := models.Network{Name: "gen"}
		for j := 0; j < 1+i%3; j++ {
			net.Layers = append(net.Layers, g.TinyLayer())
		}
		r, err := CompareIncremental(net, cfg, zooOptions())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !r.OK() {
			t.Errorf("case %d on %s:\n%s", i, cfg.Name, r)
		}
	}
}

// TestIncrementalReportRendering sanity-checks the report machinery.
func TestIncrementalReportRendering(t *testing.T) {
	r := &IncrementalReport{Network: "x", Layers: 3}
	if !r.OK() {
		t.Fatal("empty report not OK")
	}
	r.diverge("incremental/plan-bytes/pruned/p1", "a", "b")
	if r.OK() {
		t.Fatal("report with a divergence claims OK")
	}
	if s := r.String(); s == "" {
		t.Fatal("empty rendering")
	}
}
