package verify

// The search-strategy differential oracle. The Fig. 13 exploration now
// runs behind pluggable strategies (internal/sched/search): the
// exhaustive reference and the pruned branch-and-bound default. Pruning
// is only sound if the lower bound is admissible and the tie-break
// order is preserved — properties that are argued in the bound's
// documentation and *checked* here: the pruned run must
// reproduce the exhaustive plan byte-for-byte on the wire while
// provably doing no more exact-evaluation work.

import (
	"encoding/json"
	"fmt"
	"strings"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

// StrategyReport collects one network's strategy divergences.
type StrategyReport struct {
	Network string
	// ExhaustiveEvaluated and PrunedEvaluated are the whole-network
	// exact-evaluation counts — the work the branch-and-bound exists to
	// avoid. OK() does not compare them (equal counts are legal when
	// nothing can be pruned); the caller may report the saving.
	ExhaustiveEvaluated int
	PrunedEvaluated     int
	Divergences         []Divergence
}

// OK reports whether the strategies agreed.
func (r *StrategyReport) OK() bool { return len(r.Divergences) == 0 }

// String summarizes the report, one divergence per line.
func (r *StrategyReport) String() string {
	if r.OK() {
		return fmt.Sprintf("%s: strategies agree (%d exact evaluations exhaustive, %d pruned)",
			r.Network, r.ExhaustiveEvaluated, r.PrunedEvaluated)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d strategy divergences\n", r.Network, len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

// diverge appends a divergence between two rendered values.
func (r *StrategyReport) diverge(check, wantModel, gotModel string, want, got any) {
	r.Divergences = append(r.Divergences, Divergence{
		Check:  check,
		Models: [2]string{wantModel, gotModel},
		Want:   fmt.Sprint(want),
		Got:    fmt.Sprint(got),
	})
}

// CompareStrategies schedules one network under the exhaustive reference
// and the pruned branch-and-bound and reports every disagreement:
//
//   - the two plans must be byte-identical in the shared wire encoding
//     (same argmin AND same tie-break at every layer);
//   - per layer, both strategies must stream the same candidate set, and
//     the pruned run's evaluated+pruned must account for exactly that
//     set — no candidate silently dropped;
//   - per layer, pruning must never evaluate more than exhaustion.
//
// Infeasible networks must be rejected by both strategies alike; one
// succeeding where the other fails is itself a divergence. opts.Search
// is overridden per run; everything else (patterns, refresh interval,
// controller) is compared as given.
func CompareStrategies(net models.Network, cfg hw.Config, opts sched.Options) (*StrategyReport, error) {
	r := &StrategyReport{Network: net.Name}

	withStrategy := func(s search.Strategy) sched.Options {
		o := opts
		o.Search = s
		return o
	}
	exPlan, exErr := sched.Schedule(net, cfg, withStrategy(search.Exhaustive))
	prPlan, prErr := sched.Schedule(net, cfg, withStrategy(search.Pruned))

	// Feasibility must agree before anything else is comparable.
	if (exErr == nil) != (prErr == nil) {
		r.diverge("strategy/error", "exhaustive", "pruned", errString(exErr), errString(prErr))
		return r, nil
	}
	if exErr != nil {
		if exErr.Error() != prErr.Error() {
			r.diverge("strategy/error-text", "exhaustive", "pruned", exErr, prErr)
		}
		return r, nil
	}

	// The wire encoding is the equality domain: it is what the golden
	// files, the service and the CLI all emit, so byte equality here is
	// exactly "no observable behavior change".
	exJSON, err := json.Marshal(sched.Encode(exPlan))
	if err != nil {
		return nil, fmt.Errorf("verify: encoding exhaustive plan: %w", err)
	}
	prJSON, err := json.Marshal(sched.Encode(prPlan))
	if err != nil {
		return nil, fmt.Errorf("verify: encoding pruned plan: %w", err)
	}
	if string(exJSON) != string(prJSON) {
		r.diverge("strategy/plan-bytes", "exhaustive", "pruned",
			fmt.Sprintf("%.120s", exJSON), fmt.Sprintf("%.120s", prJSON))
	}

	// Per-layer work accounting through the same exploration entry point
	// the scheduler uses.
	for _, l := range net.Layers {
		_, es, err := sched.ExploreLayer(l, cfg, withStrategy(search.Exhaustive))
		if err != nil {
			return nil, fmt.Errorf("verify: exhaustive exploration of %q: %w", l.Name, err)
		}
		_, ps, err := sched.ExploreLayer(l, cfg, withStrategy(search.Pruned))
		if err != nil {
			return nil, fmt.Errorf("verify: pruned exploration of %q: %w", l.Name, err)
		}
		r.ExhaustiveEvaluated += es.Evaluated
		r.PrunedEvaluated += ps.Evaluated
		if es.Candidates != ps.Candidates {
			r.diverge("strategy/candidates/"+l.Name, "exhaustive", "pruned", es.Candidates, ps.Candidates)
		}
		if ps.Evaluated+ps.Pruned != ps.Candidates {
			r.diverge("strategy/accounting/"+l.Name, "candidates", "evaluated+pruned",
				ps.Candidates, ps.Evaluated+ps.Pruned)
		}
		if ps.Evaluated > es.Evaluated {
			r.diverge("strategy/work/"+l.Name, "exhaustive", "pruned", es.Evaluated, ps.Evaluated)
		}
	}
	return r, nil
}

// errString renders an error for a divergence, mapping nil to "ok".
func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
