package search

import (
	"math"
	"sync/atomic"
	"testing"

	"rana/internal/pattern"
)

// cellProblem is a seeded synthetic problem over the full five-axis
// space: every (kind, tiling, point, traversal, mapping) cell gets a
// pseudo-random energy from a handful of levels (so exact ties are
// common), about one cell in six is infeasible, and the bound sits at
// or below the energy. Infeasible cells bound either to +Inf or to an
// arbitrary low value, so both the skipped and the priced kind occur.
type cellProblem struct {
	seed                                uint64
	tilings, kinds, points, travs, maps int
	priced                              []atomic.Bool
	coordPricer                         bool
}

func (cp *cellProblem) id(ki int, t pattern.Tiling, c Cell) int {
	return (((t.Tm*cp.kinds+ki)*cp.points+c.Point)*cp.travs+c.Trav)*cp.maps + c.Map
}

// cell derives one cell's (energy, feasible, bound) from its id.
func (cp *cellProblem) cell(id int) (float64, bool, float64) {
	x := (uint64(id)+1)*0x9E3779B97F4A7C15 ^ cp.seed
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	e := float64(x%23) + 10
	feasible := (x>>8)%6 != 0
	bound := e - float64((x>>16)%5)
	if !feasible && (x>>24)%2 == 0 {
		bound = math.Inf(1)
	}
	return e, feasible, bound
}

func (cp *cellProblem) problem() Problem[int] {
	kinds := []pattern.Kind{pattern.ID, pattern.OD, pattern.WD}[:cp.kinds]
	kindIdx := func(k pattern.Kind) int {
		for i, have := range kinds {
			if have == k {
				return i
			}
		}
		panic("unknown kind")
	}
	bound := func(k pattern.Kind, t pattern.Tiling, c Cell) float64 {
		_, _, b := cp.cell(cp.id(kindIdx(k), t, c))
		return b
	}
	p := Problem[int]{
		Space:  NewSlice(tilingsN(cp.tilings)),
		Kinds:  kinds,
		Points: cp.points,
		Travs:  cp.travs,
		Maps:   cp.maps,
		Bound:  bound,
		Evaluate: func(k pattern.Kind, t pattern.Tiling, c Cell, out *Outcome[int]) error {
			id := cp.id(kindIdx(k), t, c)
			e, feasible, _ := cp.cell(id)
			cp.priced[id].Store(true)
			*out = Outcome[int]{Feasible: feasible, Energy: e, Value: id}
			return nil
		},
	}
	if cp.coordPricer {
		p.NewPricer = func() Pricer { return statelessPricer{bound: bound, maps: cp.maps} }
	}
	return p
}

// statelessPricer is a Pricer over a stateless bound: LowerCoord is the
// least cell bound by definition.
type statelessPricer struct {
	bound func(pattern.Kind, pattern.Tiling, Cell) float64
	maps  int
}

func (s statelessPricer) Lower(k pattern.Kind, t pattern.Tiling, c Cell) float64 {
	return s.bound(k, t, c)
}

func (s statelessPricer) LowerCoord(k pattern.Kind, t pattern.Tiling, point, trav int) float64 {
	lb := math.Inf(1)
	for mi := 0; mi < s.maps; mi++ {
		lb = min(lb, s.bound(k, t, Cell{Point: point, Trav: trav, Map: mi}))
	}
	return lb
}

func (s statelessPricer) Release() {}

// TestBestFirstMatchesExhaustive is the best-first scan's property
// test. Over seeded problems with several mapping cells per coordinate,
// exact ties and infeasible cells, at Parallelism 1, 2 and 4, with and
// without an incremental pricer:
//
//   - the argmin (candidate, energy and value) equals Exhaustive's;
//   - every cell whose bound does not exceed the optimum was priced;
//   - Candidates == Evaluated + Pruned, and Pruned really saved work.
func TestBestFirstMatchesExhaustive(t *testing.T) {
	shapes := []struct{ tilings, kinds, points, travs, maps int }{
		{1, 1, 1, 1, 1},
		{7, 2, 1, 1, 2},
		{40, 2, 1, 4, 2},
		{33, 3, 2, 3, 3},
		{90, 2, 3, 1, 1},
	}
	seeds := uint64(6)
	if testing.Short() {
		seeds = 2
	}
	for _, sh := range shapes {
		for seed := uint64(0); seed < seeds; seed++ {
			for _, coordPricer := range []bool{false, true} {
				cp := &cellProblem{seed: seed * 0x51AF, tilings: sh.tilings, kinds: sh.kinds,
					points: sh.points, travs: sh.travs, maps: sh.maps, coordPricer: coordPricer}
				cells := sh.tilings * sh.kinds * sh.points * sh.travs * sh.maps
				cp.priced = make([]atomic.Bool, cells)
				ref, err := Run(cp.problem(), Options{Strategy: Exhaustive, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4} {
					cp.priced = make([]atomic.Bool, cells)
					got, err := Run(cp.problem(), Options{Strategy: Pruned, Parallelism: workers})
					if err != nil {
						t.Fatal(err)
					}
					name := func() string {
						return "shape " + itoa(sh.tilings) + "x" + itoa(sh.kinds) + "x" + itoa(sh.points) + "x" + itoa(sh.travs) + "x" + itoa(sh.maps) +
							" seed " + itoa(int(seed)) + " workers " + itoa(workers)
					}
					if got.Found != ref.Found || got.Candidate != ref.Candidate ||
						got.Outcome.Energy != ref.Outcome.Energy || got.Outcome.Value != ref.Outcome.Value {
						t.Fatalf("%s: best-first %+v / %+v, exhaustive %+v / %+v",
							name(), got.Candidate, got.Outcome, ref.Candidate, ref.Outcome)
					}
					st := got.Stats
					if st.Candidates != cells || st.Candidates != st.Evaluated+st.Pruned {
						t.Fatalf("%s: accounting %+v over %d cells", name(), st, cells)
					}
					if st.Tilings != ref.Stats.Tilings || st.Admitted != ref.Stats.Admitted {
						t.Fatalf("%s: deterministic stats moved: %+v vs %+v", name(), st, ref.Stats)
					}
					if !ref.Found {
						continue
					}
					for id := range cells {
						if _, _, b := cp.cell(id); b <= ref.Outcome.Energy && !cp.priced[id].Load() {
							t.Fatalf("%s: cell %d bounds to %v, not above the optimum %v, yet was never priced",
								name(), id, b, ref.Outcome.Energy)
						}
					}
				}
			}
		}
	}
}

// TestBestFirstChunksBeyondTheScratchCap drives a space whose
// coordinates overflow maxScratchBytes, so the scan runs chunk by chunk
// with the incumbent carried across, and checks the argmin against the
// canonical-order minimum computed cell by cell, and the accounting.
func TestBestFirstChunksBeyondTheScratchCap(t *testing.T) {
	cp := &cellProblem{seed: 7, kinds: 2, points: 1, travs: 3, maps: 1}
	perTiling := cp.kinds * cp.points * cp.travs
	chunk := maxScratchBytes / (4 + 8*perTiling)
	cp.tilings = 2*chunk + chunk/2
	cells := cp.tilings * perTiling * cp.maps
	cp.priced = make([]atomic.Bool, cells)
	// The reference argmin: least energy, then canonical order, which
	// puts the kind before the tiling.
	var want Candidate
	wantE := math.Inf(1)
	for ki := 0; ki < cp.kinds; ki++ {
		for ti := 0; ti < cp.tilings; ti++ {
			for tv := 0; tv < cp.travs; tv++ {
				c := Cell{Trav: tv}
				if e, feasible, _ := cp.cell(cp.id(ki, pattern.Tiling{Tm: ti}, c)); feasible && e < wantE {
					wantE, want = e, Candidate{KindIdx: ki, TilingIdx: ti, TravIdx: tv}
				}
			}
		}
	}
	for _, workers := range []int{1, 2} {
		got, err := Run(cp.problem(), Options{Strategy: Pruned, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		c := got.Candidate
		if c.KindIdx != want.KindIdx || c.TilingIdx != want.TilingIdx || c.TravIdx != want.TravIdx || got.Outcome.Energy != wantE {
			t.Fatalf("workers %d: best-first %+v at %v, want %+v at %v", workers, c, got.Outcome.Energy, want, wantE)
		}
		if st := got.Stats; st.Candidates != cells || st.Candidates != st.Evaluated+st.Pruned || st.Evaluated >= cells/2 {
			t.Fatalf("workers %d: stats %+v over %d cells", workers, st, cells)
		}
	}
}

// TestFloor32 pins the bound rounding: never above the input, and the
// largest float32 that is not.
func TestFloor32(t *testing.T) {
	for _, x := range []float64{0, 1, 0.1, 1.0 / 3, 12345.678901, 1e30, 3.4e38, 1e39, math.Inf(1), 7e-46} {
		f := floor32(x)
		if float64(f) > x {
			t.Errorf("floor32(%v) = %v, above the input", x, f)
		}
		if next := math.Nextafter32(f, float32(math.Inf(1))); !math.IsInf(float64(f), 1) && float64(next) <= x {
			t.Errorf("floor32(%v) = %v, but %v is a larger float32 not above it", x, f, next)
		}
	}
}
