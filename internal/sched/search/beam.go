package search

import (
	"container/heap"
	"sync/atomic"
)

// scored is one candidate with its lower bound, awaiting exact pricing.
type scored struct {
	c     Candidate
	bound float64
}

// worse orders scored candidates by descending promise: larger bound
// first, later canonical position first on ties — exactly the candidate
// a full beam evicts next, so the kept set (and therefore the beam's
// result) is deterministic regardless of evaluation cost or timing.
func worse(a, b *scored) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	return canonicalBefore(&b.c, &a.c)
}

// beamHeap is a max-heap by worse — the root is the least promising
// kept candidate, the one a better arrival displaces.
type beamHeap []scored

func (h beamHeap) Len() int           { return len(h) }
func (h beamHeap) Less(i, j int) bool { return worse(&h[i], &h[j]) }
func (h beamHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *beamHeap) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *beamHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// beam runs the budgeted top-K strategy: bound every candidate in one
// streaming pass, keep the width most promising, price only those. If
// none of the kept candidates turns out feasible, the bound budget was
// spent on infeasible space — fall back to a full branch-and-bound
// rescan so Beam never reports "no feasible tiling" when one exists.
//
// Beam composes with parallelism: the bounding pass stays sequential
// (it is the cheap streaming part and keeps the kept set trivially
// deterministic), while the expensive exact pricing of the kept set
// fans out across the worker pool. The survivors are sorted into
// canonical order *before* the fan-out and reduced in that same order
// afterwards, so the first-wins strict-< rule sees them exactly as the
// sequential loop would.
func beam[T any](p Problem[T], width, workers int) (Result[T], error) {
	var r Result[T]
	r.Stats.Workers = 1
	points, travs, maps := p.points(), p.travs(), p.maps()
	// The bounding pass is sequential, so one pricing context covers it;
	// the feasibility-fallback rescan below acquires its own.
	var pricer Pricer
	if p.Bound != nil && p.NewPricer != nil {
		pricer = p.NewPricer()
		defer pricer.Release()
	}
	kept := make(beamHeap, 0, width)
	for ti := 0; ; ti++ {
		t, ok := p.Space.Next()
		if !ok {
			break
		}
		r.Stats.Tilings++
		if p.Admit != nil && !p.Admit(t) {
			continue
		}
		r.Stats.Admitted++
		for ki, k := range p.Kinds {
			for pi := 0; pi < points; pi++ {
				for tv := 0; tv < travs; tv++ {
					for mi := 0; mi < maps; mi++ {
						r.Stats.Candidates++
						var lb float64
						if p.Bound != nil {
							r.Stats.Bounded++
							cell := Cell{Point: pi, Trav: tv, Map: mi}
							if pricer != nil {
								lb = pricer.Lower(k, t, cell)
							} else {
								lb = p.Bound(k, t, cell)
							}
						}
						// The stream is canonical, so an arrival is canonically
						// after every kept candidate: it displaces the least
						// promising one (worse) only on a strictly smaller bound,
						// and only then is its Candidate built.
						full := len(kept) == width
						if full && !(kept[0].bound > lb) {
							r.Stats.Pruned++
							continue
						}
						s := scored{c: Candidate{Kind: k, KindIdx: ki, Tiling: t, TilingIdx: ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}, bound: lb}
						if full {
							kept[0] = s
							heap.Fix(&kept, 0)
							r.Stats.Pruned++
						} else {
							heap.Push(&kept, s)
						}
					}
				}
			}
		}
	}

	// Price the survivors in canonical preference order so the plain
	// first-wins strict-< rule reproduces the shared tie-break.
	ordered := make([]scored, len(kept))
	copy(ordered, kept)
	sortCanonical(ordered)
	outs, firstErr := priceOrdered(p, ordered, workers, &r.Stats)
	if firstErr != nil {
		return Result[T]{}, firstErr
	}
	for i, s := range ordered {
		out := &outs[i]
		if !out.Feasible {
			continue
		}
		if !r.Found || prefer(out.Energy, &s.c, r.Outcome.Energy, &r.Candidate) {
			r.take(&s.c, out)
		}
	}
	if !r.Found {
		p.Space.Reset()
		full, err := pruned(p, workers)
		if err != nil {
			return Result[T]{}, err
		}
		full.Stats.Add(r.Stats)
		return full, nil
	}
	return r, nil
}

// priceOrdered evaluates the canonically sorted survivors, fanning the
// exact pricer across the worker pool when workers > 1. Results land in
// an index-aligned slice so the caller's sequential reduction is
// oblivious to evaluation order; on errors the canonically earliest one
// wins (index order == canonical order here).
func priceOrdered[T any](p Problem[T], ordered []scored, workers int, stats *Stats) ([]Outcome[T], error) {
	outs := make([]Outcome[T], len(ordered))
	if workers > len(ordered) {
		workers = len(ordered)
	}
	if workers <= 1 {
		for i, s := range ordered {
			if err := p.Evaluate(s.c.Kind, s.c.Tiling, s.c.Cell(), &outs[i]); err != nil {
				return nil, err
			}
			stats.Evaluated++
		}
		return outs, nil
	}
	if workers > stats.Workers {
		stats.Workers = workers
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		errs   = make([]error, len(ordered))
	)
	fanOut(workers, &failed, func(int) {
		for !failed.Load() {
			i := int(cursor.Add(1)) - 1
			if i >= len(ordered) {
				return
			}
			if err := p.Evaluate(ordered[i].c.Kind, ordered[i].c.Tiling, ordered[i].c.Cell(), &outs[i]); err != nil {
				errs[i] = err
				failed.Store(true)
				return
			}
		}
	})
	evaluated := 0
	var firstErr error
	for i := range ordered {
		if errs[i] != nil {
			firstErr = errs[i]
			break
		}
		evaluated++
	}
	if firstErr != nil {
		return nil, firstErr
	}
	stats.Evaluated += evaluated
	return outs, nil
}

// sortCanonical orders survivors by (kind index, tiling index, point
// index, traversal index, mapping index) — the canonical enumeration
// order ties are defined over. Insertion sort: the beam is small and
// the input nearly unordered heap backing.
func sortCanonical(xs []scored) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && canonicalBefore(&xs[j].c, &xs[j-1].c); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
