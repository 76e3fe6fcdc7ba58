package sched

import (
	"fmt"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// LowerBoundForTest exposes the branch-and-bound admissible lower bound
// to external test packages (the randomized admissibility property test
// lives outside package sched to use internal/verify/gen, which imports
// sched).
func LowerBoundForTest(l models.ConvLayer, cfg hw.Config, k pattern.Kind, t pattern.Tiling) float64 {
	tables := []energy.Table{cfg.BufferTech.Table()}
	return newBound(l, cfg, tables, 1, nil).lower(k, t, search.Cell{})
}

// CheckEvaluatorReuseForTest drives the search's exact evaluator
// (exploreState.evaluateExact) through every cell of the layer's
// admitted space in the engine's scan order — tiling, kind, point,
// traversal, mapping — on one scratch Outcome, skipping the cells for
// which skip(i) holds (i counts cells from 0), the gaps pruning leaves.
// Each evaluated cell must equal the stateless evaluateCell field for
// field. It returns the number of cells evaluated.
func CheckEvaluatorReuseForTest(l models.ConvLayer, cfg hw.Config, opts Options, skip func(i int) bool) (int, error) {
	var sc axisScratch
	env, err := opts.parseAxes(&sc)
	if err != nil {
		return 0, err
	}
	s := newExploreState()
	s.bk, s.points, err = appendBackendPoints(nil, cfg, opts, opts.layerBudget(l.Name), l.Name)
	if err != nil {
		return 0, err
	}
	s.bind(l, cfg, opts, env)
	out := getOutcome()
	defer putOutcome(out)
	i, checked := 0, 0
	for _, t := range candidateTilings(l, cfg, opts) {
		if !s.admit(t) {
			continue
		}
		for _, k := range opts.Patterns {
			for pi, pt := range s.points {
				for tv, trv := range env.travs {
					for mi, mp := range env.maps {
						i++
						if skip(i - 1) {
							continue
						}
						cell := search.Cell{Point: pi, Trav: tv, Map: mi}
						if err := s.evaluate(k, t, cell, out); err != nil {
							return checked, fmt.Errorf("%v %v %+v: %w", k, t, cell, err)
						}
						want, err := evaluateCell(l, k, t, cfg, opts, s.bk, pt, trv, mp)
						if err != nil {
							return checked, fmt.Errorf("%v %v %+v: stateless: %w", k, t, cell, err)
						}
						if got := out.Value.LayerPlan; got != want {
							return checked, fmt.Errorf("%v %v %+v: reused evaluation\n%+v\ndiffers from the stateless one\n%+v", k, t, cell, got, want)
						}
						if out.Feasible != want.Analysis.Feasible || out.Energy != want.Energy.Total() {
							return checked, fmt.Errorf("%v %v %+v: outcome (%v, %v), stateless (%v, %v)",
								k, t, cell, out.Feasible, out.Energy, want.Analysis.Feasible, want.Energy.Total())
						}
						checked++
					}
				}
			}
		}
	}
	return checked, nil
}
