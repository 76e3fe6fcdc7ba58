package sched

import (
	"encoding/json"
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

func withStrategy(o Options, s search.Strategy) Options {
	o.Search = s
	return o
}

// TestPrunedMatchesExhaustive is the strategy-differential oracle over
// the benchmark zoo: branch-and-bound must return byte-identical plans
// to the exhaustive reference (same argmin, same tie-breaks — the
// admissibility guarantee), while exactly pricing strictly fewer
// candidates (the point of pruning).
func TestPrunedMatchesExhaustive(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		ex, err := Schedule(net, cfg, withStrategy(ranaOpts(), search.Exhaustive))
		if err != nil {
			t.Fatalf("%s exhaustive: %v", net.Name, err)
		}
		pr, err := Schedule(net, cfg, withStrategy(ranaOpts(), search.Pruned))
		if err != nil {
			t.Fatalf("%s pruned: %v", net.Name, err)
		}
		ej, _ := json.Marshal(Encode(ex))
		pj, _ := json.Marshal(Encode(pr))
		if string(ej) != string(pj) {
			t.Errorf("%s: pruned plan diverged from exhaustive\nexhaustive: %s\npruned:     %s", net.Name, ej, pj)
		}

		var exEvals, prEvals int
		for _, l := range net.Layers {
			_, es, err := ExploreLayer(l, cfg, withStrategy(ranaOpts(), search.Exhaustive))
			if err != nil {
				t.Fatal(err)
			}
			_, ps, err := ExploreLayer(l, cfg, withStrategy(ranaOpts(), search.Pruned))
			if err != nil {
				t.Fatal(err)
			}
			if ps.Candidates != es.Candidates {
				t.Errorf("%s/%s: strategies saw different candidate spaces: %d vs %d",
					net.Name, l.Name, ps.Candidates, es.Candidates)
			}
			if ps.Evaluated+ps.Pruned != es.Evaluated {
				t.Errorf("%s/%s: pruned evaluations %d + skips %d != exhaustive evaluations %d",
					net.Name, l.Name, ps.Evaluated, ps.Pruned, es.Evaluated)
			}
			exEvals += es.Evaluated
			prEvals += ps.Evaluated
		}
		if prEvals >= exEvals {
			t.Errorf("%s: pruning saved nothing (%d vs %d exact evaluations)", net.Name, prEvals, exEvals)
		}
		t.Logf("%s: exhaustive priced %d candidates, pruned %d (%.1f%% skipped)",
			net.Name, exEvals, prEvals, 100*float64(exEvals-prEvals)/float64(exEvals))
	}
}

// TestTilingSpaceEnumeratedOncePerLayer pins the hoist fix: the tiling
// space is pattern-independent, so the number of tilings streamed must
// not scale with the number of pattern kinds explored.
func TestTilingSpaceEnumeratedOncePerLayer(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l, _ := models.VGG().Layer("conv4_2")
	one := ranaOpts()
	one.Patterns = []pattern.Kind{pattern.OD}
	_, s1, err := ExploreLayer(l, cfg, one)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := ExploreLayer(l, cfg, ranaOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := len(candidateTilings(l, cfg, ranaOpts()))
	if s1.Tilings != want || s2.Tilings != want {
		t.Errorf("tilings streamed = %d (1 kind) / %d (2 kinds), want %d both — space must be enumerated once, not per pattern",
			s1.Tilings, s2.Tilings, want)
	}
	if s2.Candidates != 2*s2.Admitted {
		t.Errorf("candidates %d != kinds × admitted tilings %d", s2.Candidates, 2*s2.Admitted)
	}

	// The natural-tiling baseline path enumerates its reduction order
	// once, too.
	nat := ranaOpts()
	nat.NaturalTiling = true
	_, ns, err := ExploreLayer(l, cfg, nat)
	if err != nil {
		t.Fatal(err)
	}
	if natWant := len(naturalTilings(l, cfg)); ns.Tilings != natWant {
		t.Errorf("natural mode streamed %d tilings, want %d (enumerated once, not per kind)", ns.Tilings, natWant)
	}
}

// TestStrategyOptionValidation: unknown strategies are rejected at the
// options boundary.
func TestStrategyOptionValidation(t *testing.T) {
	o := ranaOpts()
	o.Search = "simulated-annealing"
	if err := o.Validate(); err == nil {
		t.Error("unknown strategy validated")
	}
	for _, s := range search.Strategies() {
		if err := withStrategy(ranaOpts(), s).Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

// TestFixedTilingUnderEveryStrategy: the fixed-tiling baseline space is
// a single point; every strategy must land on it.
func TestFixedTilingUnderEveryStrategy(t *testing.T) {
	cfg := hw.DaDianNao()
	ti := pattern.Tiling{Tm: 64, Tn: 64, Tr: 1, Tc: 1}
	for _, s := range search.Strategies() {
		opts := withStrategy(ranaOpts(), s)
		opts.Patterns = []pattern.Kind{pattern.WD}
		opts.FixedTiling = &ti
		plan, err := Schedule(models.AlexNet(), cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, lp := range plan.Layers {
			if lp.Analysis.Tiling != ti {
				t.Fatalf("%s: tiling %v escaped the fixed point", s, lp.Analysis.Tiling)
			}
		}
	}
}
