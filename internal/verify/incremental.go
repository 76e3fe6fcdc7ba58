package verify

// The incremental-pricing differential oracle. The incremental bound
// evaluator (sched's pricingCtx + PrefixMemo) must be *invisible*: it
// caches integer partial terms, so every lower bound it returns is
// bit-identical to the stateless reference, and therefore every pruning
// decision, every plan byte and every work counter must match with
// incremental pricing on and off. This oracle is the check: plans are
// compared byte-for-byte under the pruned branch-and-bound (the
// strategy that consumes bounds), sequentially and at full
// parallelism, and the sequential per-layer work accounting (candidates bounded, pruned,
// exactly priced) is compared counter-for-counter — a pruning decision
// that moved would surface here even if the argmin happened to survive.

import (
	"encoding/json"
	"fmt"
	"strings"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

// IncrementalReport collects one network's divergences between stateless
// and incremental bound pricing.
type IncrementalReport struct {
	Network string
	// Layers is the layer count whose sequential work accounting was
	// compared.
	Layers      int
	Divergences []Divergence
}

// OK reports whether incremental pricing was observationally invisible.
func (r *IncrementalReport) OK() bool { return len(r.Divergences) == 0 }

// String summarizes the report, one divergence per line.
func (r *IncrementalReport) String() string {
	if r.OK() {
		return fmt.Sprintf("%s: incremental pricing invisible (plans byte-identical, %d layers' work accounting identical)",
			r.Network, r.Layers)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d incremental-pricing divergences\n", r.Network, len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

func (r *IncrementalReport) diverge(check string, want, got any) {
	r.Divergences = append(r.Divergences, Divergence{
		Check:  check,
		Models: [2]string{"stateless-bound", "incremental-bound"},
		Want:   fmt.Sprint(want),
		Got:    fmt.Sprint(got),
	})
}

// CompareIncremental schedules one network with incremental bound
// pricing disabled (the stateless reference) and enabled under the
// pruned branch-and-bound, on both the sequential and parallel paths,
// and reports any divergence in plan bytes. It then re-explores
// every layer sequentially under both modes and compares the search
// work counters exactly: identical Bounded/Pruned/Evaluated splits
// prove the pruning decisions — not just the winners — were identical.
//
// opts.Search, opts.Parallelism, opts.Memo, opts.DisableMemo, opts.Prefix
// and opts.DisableIncremental are overridden per run; everything else is
// compared as given.
func CompareIncremental(net models.Network, cfg hw.Config, opts sched.Options) (*IncrementalReport, error) {
	r := &IncrementalReport{Network: net.Name, Layers: len(net.Layers)}

	variant := func(workers int, incremental bool) sched.Options {
		o := opts
		o.Search = search.Pruned
		o.Parallelism = workers
		o.Memo = nil
		o.DisableMemo = true // every layer must actually explore
		o.Prefix = nil
		o.DisableIncremental = !incremental
		return o
	}

	for _, workers := range []int{1, 0} { // sequential, then GOMAXPROCS
		name := fmt.Sprintf("pruned/p%d", workers)
		refPlan, refErr := sched.Schedule(net, cfg, variant(workers, false))
		incPlan, incErr := sched.Schedule(net, cfg, variant(workers, true))
		if (refErr == nil) != (incErr == nil) {
			r.diverge("incremental/error/"+name, errString(refErr), errString(incErr))
			continue
		}
		if refErr != nil {
			if refErr.Error() != incErr.Error() {
				r.diverge("incremental/error-text/"+name, refErr, incErr)
			}
			continue
		}
		refJSON, err := json.Marshal(sched.Encode(refPlan))
		if err != nil {
			return nil, fmt.Errorf("verify: encoding reference plan: %w", err)
		}
		incJSON, err := json.Marshal(sched.Encode(incPlan))
		if err != nil {
			return nil, fmt.Errorf("verify: encoding incremental plan: %w", err)
		}
		if string(refJSON) != string(incJSON) {
			r.diverge("incremental/plan-bytes/"+name,
				fmt.Sprintf("%.120s", refJSON), fmt.Sprintf("%.120s", incJSON))
		}
	}

	// Work accounting: sequential pruned exploration per layer. The
	// counters are deterministic at Parallelism 1, so any difference is
	// a pruning decision that moved between the two bound evaluators.
	for _, l := range net.Layers {
		ref := variant(1, false)
		inc := variant(1, true)
		_, refStats, refErr := sched.ExploreLayer(l, cfg, ref)
		_, incStats, incErr := sched.ExploreLayer(l, cfg, inc)
		if (refErr == nil) != (incErr == nil) {
			r.diverge("incremental/layer-error/"+l.Name, errString(refErr), errString(incErr))
			continue
		}
		if refStats != incStats {
			r.diverge("incremental/work/"+l.Name,
				fmt.Sprintf("%+v", refStats), fmt.Sprintf("%+v", incStats))
		}
	}
	return r, nil
}
