package search

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"rana/internal/pattern"
)

func TestStrategyValidateAndResolve(t *testing.T) {
	for _, s := range append(Strategies(), Strategy("")) {
		if err := s.Validate(); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
	if err := Strategy("genetic").Validate(); err == nil {
		t.Error("unknown strategy validated")
	}
	if Strategy("").Resolve() != Pruned {
		t.Errorf("default strategy = %v, want pruned", Strategy("").Resolve())
	}
}

func TestAxis(t *testing.T) {
	got := Axis(14, 16)
	want := []int{1, 2, 4, 8, 14}
	if len(got) != len(want) {
		t.Fatalf("Axis(14,16) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Axis(14,16) = %v, want %v", got, want)
		}
	}
	// The array width joins when it fits; values stay ascending and
	// deduplicated.
	got = Axis(64, 16)
	prev := 0
	has16, has64 := false, false
	for _, v := range got {
		if v <= prev {
			t.Fatalf("Axis(64,16) not strictly ascending: %v", got)
		}
		prev = v
		has16 = has16 || v == 16
		has64 = has64 || v == 64
	}
	if !has16 || !has64 {
		t.Errorf("Axis(64,16) = %v, missing array width or dim", got)
	}
}

func TestProductStreamsFullCrossProductInOrder(t *testing.T) {
	p := NewProduct([]int{1, 2}, []int{3}, []int{4, 5}, []int{6, 7})
	if p.Size() != 8 {
		t.Fatalf("Size = %d", p.Size())
	}
	var got []pattern.Tiling
	for {
		ti, ok := p.Next()
		if !ok {
			break
		}
		got = append(got, ti)
	}
	want := []pattern.Tiling{
		{Tm: 1, Tn: 3, Tr: 4, Tc: 6}, {Tm: 1, Tn: 3, Tr: 4, Tc: 7},
		{Tm: 1, Tn: 3, Tr: 5, Tc: 6}, {Tm: 1, Tn: 3, Tr: 5, Tc: 7},
		{Tm: 2, Tn: 3, Tr: 4, Tc: 6}, {Tm: 2, Tn: 3, Tr: 4, Tc: 7},
		{Tm: 2, Tn: 3, Tr: 5, Tc: 6}, {Tm: 2, Tn: 3, Tr: 5, Tc: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d tilings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tiling %d = %v, want %v (historical Tm-major nesting)", i, got[i], want[i])
		}
		if at := p.At(i); at != want[i] {
			t.Fatalf("At(%d) = %v, want %v (the %d-th Next)", i, at, want[i], i)
		}
	}
	// Exhausted stays exhausted; Init rewinds.
	if _, ok := p.Next(); ok {
		t.Error("Next after exhaustion")
	}
	p.Init([]int{1, 2}, []int{3}, []int{4, 5}, []int{6, 7})
	if ti, ok := p.Next(); !ok || ti != want[0] {
		t.Errorf("Init: got %v/%v", ti, ok)
	}
}

func TestEmptyProduct(t *testing.T) {
	p := NewProduct(nil, []int{1}, []int{1}, []int{1})
	if p.Size() != 0 {
		t.Fatalf("Size = %d", p.Size())
	}
	if _, ok := p.Next(); ok {
		t.Error("empty product yielded a tiling")
	}
}

// synthetic builds a Problem over a fixed candidate table keyed by
// (kind, Tm): energies, feasibility and bounds are scripted so the
// strategies' selection logic is tested in isolation.
type entry struct {
	energy   float64
	feasible bool
	bound    float64
}

// recorder logs the candidates a synthetic problem prices. Evaluate
// runs on every worker of a parallel run, so the log is mutex-guarded;
// only a Parallelism 1 run has an order worth asserting.
type recorder struct {
	mu  sync.Mutex
	ids []string
}

func (r *recorder) add(id string) {
	r.mu.Lock()
	r.ids = append(r.ids, id)
	r.mu.Unlock()
}

// expect fails the test unless the log is exactly want, in order.
func (r *recorder) expect(t *testing.T, want ...string) {
	t.Helper()
	if !slices.Equal(r.ids, want) {
		t.Fatalf("evaluated %v, want %v", r.ids, want)
	}
}

func synthetic(tilings []pattern.Tiling, kinds []pattern.Kind, table map[string]entry, evaluated *recorder) Problem[string] {
	key := func(k pattern.Kind, t pattern.Tiling) string { return fmt.Sprintf("%v/%d", k, t.Tm) }
	return Problem[string]{
		Space: NewSlice(tilings),
		Kinds: kinds,
		Bound: func(k pattern.Kind, t pattern.Tiling, _ Cell) float64 { return table[key(k, t)].bound },
		Evaluate: func(k pattern.Kind, t pattern.Tiling, _ Cell, out *Outcome[string]) error {
			id := key(k, t)
			e, ok := table[id]
			if !ok {
				return errors.New("no entry for " + id)
			}
			if evaluated != nil {
				evaluated.add(id)
			}
			*out = Outcome[string]{Feasible: e.feasible, Energy: e.energy, Value: id}
			return nil
		},
	}
}

func tilingsN(n int) []pattern.Tiling {
	ts := make([]pattern.Tiling, n)
	for i := range ts {
		ts[i] = pattern.Tiling{Tm: i, Tn: 1, Tr: 1, Tc: 1}
	}
	return ts
}

// TestTieBreakKeepsEarliestCanonicalCandidate is the regression test
// pinning deterministic tie-breaking: among equal-energy feasible
// candidates, every strategy returns the earliest in canonical
// (kind-major, then tiling) enumeration order — the legacy pattern-major
// strict-< rule — so Pruned or any parallel variant can never silently
// flip equal-energy argmins.
func TestTieBreakKeepsEarliestCanonicalCandidate(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	// Equal minimum energy at three points; canonical order is
	// OD/0, OD/1, OD/2, WD/0, WD/1, WD/2 — the winner must be OD/1
	// (OD/0 is infeasible).
	table := map[string]entry{
		"OD/0": {energy: 5, feasible: false},
		"OD/1": {energy: 5, feasible: true},
		"OD/2": {energy: 5, feasible: true},
		"WD/0": {energy: 5, feasible: true},
		"WD/1": {energy: 6, feasible: true},
		"WD/2": {energy: 7, feasible: true},
	}
	for _, s := range Strategies() {
		r, err := Run(synthetic(tilingsN(3), kinds, table, nil), Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || r.Outcome.Value != "OD/1" {
			t.Errorf("%s: chose %q (found=%v), want OD/1 — equal-energy tie must keep the earliest canonical candidate", s, r.Outcome.Value, r.Found)
		}
	}
	// A strictly cheaper later candidate still wins under WD even though
	// OD comes first in kind order.
	table["WD/2"] = entry{energy: 1, feasible: true}
	for _, s := range Strategies() {
		r, err := Run(synthetic(tilingsN(3), kinds, table, nil), Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome.Value != "WD/2" {
			t.Errorf("%s: chose %q, want WD/2", s, r.Outcome.Value)
		}
	}
}

// TestPrunedSkipsBoundedCandidatesButKeepsArgmin: the best-first scan
// seeds its incumbent with the lowest-bound candidate, prices the rest
// in ascending-bound order, never prices a candidate whose bound
// exceeds the incumbent, and still prices one whose bound merely
// *equals* it — that candidate can tie exactly and win the tie-break,
// as OD/0 does here.
func TestPrunedSkipsBoundedCandidatesButKeepsArgmin(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	table := map[string]entry{
		"OD/0": {energy: 10, feasible: true, bound: 10}, // bound == incumbent: priced last, wins the tie
		"OD/1": {energy: 30, feasible: true, bound: 20}, // bound > incumbent 10: pruned
		"OD/2": {energy: 12, feasible: true, bound: 4},  // priced second, in bound order
		"OD/3": {energy: 10, feasible: true, bound: 1},  // lowest bound: seeds the incumbent
	}
	var evaluated recorder
	r, err := Run(synthetic(tilingsN(4), kinds, table, &evaluated), Options{Strategy: Pruned, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome.Value != "OD/0" {
		t.Errorf("argmin = %q, want OD/0", r.Outcome.Value)
	}
	// The trailing OD/0 is the scan settling its winner's Value: the
	// incumbent is kept by energy while the scan runs and priced once
	// more at the end, uncounted (Stats.Evaluated stays 3 below).
	evaluated.expect(t, "OD/3", "OD/2", "OD/0", "OD/0")
	if r.Stats.Pruned != 1 || r.Stats.Evaluated != 3 || r.Stats.Candidates != 4 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

func TestRunPropagatesEvaluatorErrors(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	for _, s := range Strategies() {
		p := synthetic(tilingsN(1), kinds, map[string]entry{}, nil) // empty table: every Evaluate errors
		if _, err := Run(p, Options{Strategy: s}); err == nil {
			t.Errorf("%s: evaluator error swallowed", s)
		}
	}
}

func TestRunRejectsUnknownStrategy(t *testing.T) {
	p := synthetic(tilingsN(1), []pattern.Kind{pattern.OD}, map[string]entry{"OD/0": {energy: 1, feasible: true}}, nil)
	if _, err := Run(p, Options{Strategy: "annealing"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestAdmitFiltersBeforeKinds(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	table := map[string]entry{
		"OD/1": {energy: 2, feasible: true},
		"WD/1": {energy: 3, feasible: true},
	}
	p := synthetic(tilingsN(2), kinds, table, nil)
	p.Admit = func(t pattern.Tiling) bool { return t.Tm == 1 }
	r, err := Run(p, Options{Strategy: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Tilings != 2 || r.Stats.Admitted != 1 || r.Stats.Candidates != 2 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if r.Outcome.Value != "OD/1" {
		t.Errorf("pick = %q", r.Outcome.Value)
	}
}
