package verify

// The traversal/mapping-axis differential oracle. The Fig. 13
// exploration now searches two more axes — tile traversal order (RTC)
// and bank/row data mapping (PENDRAM) — and this oracle checks the three
// properties that make them safe to enable:
//
//   - leaving the axes at their defaults is exactly the legacy
//     computation: explicit default spellings ("linear", "row-major")
//     produce byte-identical wire plans to empty specs;
//   - the branch-and-bound stays sound across the enlarged space: the
//     pruned run reproduces the exhaustive plan byte-for-byte (the
//     enlarged space itself can only improve on the default-only one);
//   - every *admitted* reorder meets its retention deadlines in the
//     cycle walker: for each layer the empirical per-region lifetimes of
//     sim.WalkTraversal must not exceed the analytical lifetimes the
//     refresh decisions were derived from, and any region the plan
//     leaves unrefreshed must empirically retire before the guarded
//     retention interval.

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/sim"
)

// TraversalReport collects one network's traversal-axis divergences.
type TraversalReport struct {
	Network string
	// Reordered counts layers whose winning plan left the default cell
	// (non-linear traversal or non-row-major mapping) — the axis doing
	// observable work. Zero is legal: on some (network, config) pairs the
	// defaults win everywhere.
	Reordered int
	// SavedPJ is the whole-network energy the enlarged space saved over
	// the default-only exhaustive optimum (>= 0 when the oracle passes).
	SavedPJ     float64
	Divergences []Divergence
}

// OK reports whether every traversal-axis property held.
func (r *TraversalReport) OK() bool { return len(r.Divergences) == 0 }

// String summarizes the report, one divergence per line.
func (r *TraversalReport) String() string {
	if r.OK() {
		return fmt.Sprintf("%s: traversal axes sound (%d layers reordered, %.4g pJ saved)",
			r.Network, r.Reordered, r.SavedPJ)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d traversal divergences\n", r.Network, len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

func (r *TraversalReport) diverge(check, wantModel, gotModel string, want, got any) {
	r.Divergences = append(r.Divergences, Divergence{
		Check:  check,
		Models: [2]string{wantModel, gotModel},
		Want:   fmt.Sprint(want),
		Got:    fmt.Sprint(got),
	})
}

// CompareTraversal runs the traversal/mapping-axis oracle on one
// network. opts carries the shared scheduling frame (patterns, refresh
// interval, controller); its Traversal and Mapping fields select which
// axis values to sweep — empty selects the full built-in sweep ("rtc"
// traversals, "all" mappings).
func CompareTraversal(net models.Network, cfg hw.Config, opts sched.Options, tol Tolerances) (*TraversalReport, error) {
	r := &TraversalReport{Network: net.Name}

	with := func(s search.Strategy, traversal, mapping string) sched.Options {
		o := opts
		o.Search = s
		o.Traversal = traversal
		o.Mapping = mapping
		return o
	}
	encode := func(p *sched.Plan) (string, error) {
		b, err := json.Marshal(sched.Encode(p))
		if err != nil {
			return "", fmt.Errorf("verify: encoding plan: %w", err)
		}
		return string(b), nil
	}

	// Property 1: explicit default spellings are the legacy computation,
	// byte for byte.
	basePlan, err := sched.Schedule(net, cfg, with(search.Exhaustive, "", ""))
	if err != nil {
		return nil, fmt.Errorf("verify: default-axis schedule: %w", err)
	}
	spelled, err := sched.Schedule(net, cfg, with(search.Exhaustive, "linear", "row-major"))
	if err != nil {
		return nil, fmt.Errorf("verify: spelled-default schedule: %w", err)
	}
	baseJSON, err := encode(basePlan)
	if err != nil {
		return nil, err
	}
	spelledJSON, err := encode(spelled)
	if err != nil {
		return nil, err
	}
	if baseJSON != spelledJSON {
		r.diverge("traversal/default-bytes", "empty-spec", "spelled-default",
			fmt.Sprintf("%.120s", baseJSON), fmt.Sprintf("%.120s", spelledJSON))
	}

	// The sweep the remaining properties run under.
	traversal, mapping := opts.Traversal, opts.Mapping
	if traversal == "" {
		traversal = "rtc"
	}
	if mapping == "" {
		mapping = "all"
	}

	// Property 2: the branch-and-bound stays sound on the enlarged
	// space — pruned ≡ exhaustive bytes, and the enlarged exhaustive optimum never loses to the default-only one
	// (the default cell is still in the space).
	exPlan, exErr := sched.Schedule(net, cfg, with(search.Exhaustive, traversal, mapping))
	prPlan, prErr := sched.Schedule(net, cfg, with(search.Pruned, traversal, mapping))
	if (exErr == nil) != (prErr == nil) {
		r.diverge("traversal/error", "exhaustive", "pruned", errString(exErr), errString(prErr))
		return r, nil
	}
	if exErr != nil {
		if exErr.Error() != prErr.Error() {
			r.diverge("traversal/error-text", "exhaustive", "pruned", exErr, prErr)
		}
		return r, nil
	}
	exJSON, err := encode(exPlan)
	if err != nil {
		return nil, err
	}
	prJSON, err := encode(prPlan)
	if err != nil {
		return nil, err
	}
	if exJSON != prJSON {
		r.diverge("traversal/plan-bytes", "exhaustive", "pruned",
			fmt.Sprintf("%.120s", exJSON), fmt.Sprintf("%.120s", prJSON))
	}
	if exPlan.Energy.Total() > basePlan.Energy.Total() {
		r.diverge("traversal/never-worse", "default-only", "axes-enabled",
			fmt.Sprintf("<= %g pJ", basePlan.Energy.Total()), exPlan.Energy.Total())
	}
	r.SavedPJ = basePlan.Energy.Total() - exPlan.Energy.Total()

	// Property 3: every admitted reorder meets its retention deadlines in
	// the cycle walker. The analytical lifetimes decided the refresh
	// flags; the walker's empirical maxima must confirm them.
	bk, _, err := sched.ResolveBackend(cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("verify: resolving backend: %w", err)
	}
	refreshing := opts.Controller != nil && bk.Refreshes()
	for i, lp := range exPlan.Layers {
		l := net.Layers[i]
		a := lp.Analysis
		if lp.Traversal != "" || lp.Mapping != "" {
			r.Reordered++
		}
		tr := sim.WalkTraversal(l, a.Pattern, a.Tiling, cfg, a.Traversal)
		for _, c := range []struct {
			name       string
			analytical time.Duration
			empirical  time.Duration
			need       bool
		}{
			{"inputs", a.Lifetimes.Input, tr.Lifetimes.Input, lp.Needs.Inputs},
			{"outputs", a.Lifetimes.Output, tr.Lifetimes.Output, lp.Needs.Outputs},
			{"weights", a.Lifetimes.Weight, tr.Lifetimes.Weight, lp.Needs.Weights},
		} {
			if c.empirical > c.analytical+tol.Duration {
				r.diverge("traversal/lifetime/"+l.Name+"/"+c.name, "analysis", "walker",
					c.analytical, c.empirical)
			}
			if !refreshing {
				continue
			}
			pt, ok := mem.PointByName(bk, lp.Point)
			if !ok {
				r.diverge("traversal/point/"+l.Name, "backend", "plan", bk.Name(), lp.Point)
				continue
			}
			interval := opts.RefreshInterval
			if pt.RetentionScale != 1 {
				interval = time.Duration(float64(interval) * pt.RetentionScale)
			}
			guarded := time.Duration(float64(interval) * opts.Guard())
			if !c.need && c.empirical >= guarded {
				r.diverge("traversal/deadline/"+l.Name+"/"+c.name, "guarded interval", "walker lifetime",
					fmt.Sprintf("< %v", guarded), c.empirical)
			}
		}
	}
	return r, nil
}
