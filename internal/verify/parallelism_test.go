package verify

import (
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/verify/gen"
)

// TestCompareParallelismOnZoo is the ISSUE's differential acceptance
// check: across the benchmark zoo, parallel pruned (and exhaustive) runs
// at parallelism 1, 2 and GOMAXPROCS — memo on and memo off — must
// reproduce the sequential exhaustive reference byte-for-byte on the
// wire.
func TestCompareParallelismOnZoo(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			r, err := CompareParallelism(net, cfg, zooOptions())
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

// TestCompareParallelismOnZooAxesOpen is the zoo check with the
// traversal and mapping axes open, at parallelism 1, 2 and 4: each
// worker's scratch Outcome carries its own reuse state, so plans must
// stay byte-identical to the sequential exhaustive reference.
func TestCompareParallelismOnZooAxesOpen(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			r, err := CompareParallelism(net, cfg, axesOpenOptions(), 1, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Error(r)
			}
		})
	}
}

// TestCompareParallelismOnGeneratedNetworks exercises the error-agreement
// arm: unschedulable random layers must be rejected identically at every
// parallelism level and memo mode.
func TestCompareParallelismOnGeneratedNetworks(t *testing.T) {
	g := gen.New(7)
	const nets = 15
	for i := 0; i < nets; i++ {
		cfg := g.Config()
		net := models.Network{Name: "gen"}
		for j := 0; j < 1+i%3; j++ {
			net.Layers = append(net.Layers, g.TinyLayer())
		}
		r, err := CompareParallelism(net, cfg, zooOptions(), 1, 2, 4)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !r.OK() {
			t.Errorf("case %d on %s:\n%s", i, cfg.Name, r)
		}
	}
}

// TestParallelismReportRendering sanity-checks the report machinery.
func TestParallelismReportRendering(t *testing.T) {
	r := &ParallelismReport{Network: "x", Levels: []int{1, 2}}
	if !r.OK() {
		t.Fatal("empty report not OK")
	}
	r.diverge2("parallel/plan-bytes/pruned/p2/memo=true", "a", "b")
	if r.OK() {
		t.Fatal("report with a divergence claims OK")
	}
	if s := r.String(); s == "" {
		t.Fatal("empty rendering")
	}
}
