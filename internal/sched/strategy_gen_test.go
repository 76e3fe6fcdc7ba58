// Randomized strategy-differential tests. These live in an external
// test package because they draw cases from internal/verify/gen, which
// itself imports sched.
package sched_test

import (
	"encoding/json"
	"math"
	"testing"

	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/verify/gen"
)

// TestPrunedMatchesExhaustiveOnGeneratedCases extends the differential
// oracle beyond the fixed zoo: randomized layers and accelerator
// geometries from the conformance generator.
func TestPrunedMatchesExhaustiveOnGeneratedCases(t *testing.T) {
	r := gen.New(7)
	for i := 0; i < 60; i++ {
		c := r.Case()
		exOpts, prOpts := c.Options, c.Options
		exOpts.Search = search.Exhaustive
		prOpts.Search = search.Pruned
		ex, es, errE := sched.ExploreLayer(c.Layer, c.Config, exOpts)
		pr, ps, errP := sched.ExploreLayer(c.Layer, c.Config, prOpts)
		if (errE == nil) != (errP == nil) {
			t.Fatalf("case %d: strategies disagree on feasibility: exhaustive err=%v, pruned err=%v", i, errE, errP)
		}
		if errE != nil {
			continue
		}
		ej, _ := json.Marshal(ex)
		pj, _ := json.Marshal(pr)
		if string(ej) != string(pj) {
			t.Errorf("case %d (%+v on %s): pruned diverged from exhaustive", i, c.Layer, c.Config.Name)
		}
		if ps.Evaluated > es.Evaluated {
			t.Errorf("case %d: pruned evaluated more than exhaustive (%d > %d)", i, ps.Evaluated, es.Evaluated)
		}
	}
}

// TestBoundIsAdmissible checks the branch-and-bound invariant directly
// across randomized cases: for feasible candidates the cheap lower
// bound never exceeds the exact Eq. 14 total, and the bound's inline
// feasibility predicate agrees with pattern.Analyze exactly (infeasible
// candidates bound to +Inf; a drift either way would let pruning
// discard a winnable candidate or waste pricing work).
func TestBoundIsAdmissible(t *testing.T) {
	r := gen.New(11)
	for i := 0; i < 400; i++ {
		c := r.Case()
		lb := sched.LowerBoundForTest(c.Layer, c.Config, c.Pattern, c.Tiling)
		lp, err := sched.Evaluate(c.Layer, c.Pattern, c.Tiling, c.Config, c.Options)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if lp.Analysis.Feasible != !math.IsInf(lb, 1) {
			t.Errorf("case %d: bound feasibility (inf=%v) disagrees with Analyze (feasible=%v) for %v %v on %+v",
				i, math.IsInf(lb, 1), lp.Analysis.Feasible, c.Pattern, c.Tiling, c.Layer)
		}
		if exact := lp.Energy.Total(); lp.Analysis.Feasible && lb > exact {
			t.Errorf("case %d: bound %.6e exceeds exact energy %.6e for %v %v on %+v",
				i, lb, exact, c.Pattern, c.Tiling, c.Layer)
		}
	}
}
