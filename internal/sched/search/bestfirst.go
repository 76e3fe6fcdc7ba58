package search

// The best-first branch-and-bound scan behind Pruned. A canonical-order
// scan tightens its
// incumbent slowly: the early tilings are rarely good, so most of what
// it prices is priced before the incumbent can prune it. The
// best-first scan bounds the whole space first and prices in ascending
// bound order instead:
//
//  1. Bound every coordinate — a (kind, tiling, point, traversal) cell
//     group — once, as the minimum over its mapping cells
//     (Pricer.LowerCoord), fanned out over tiling ranges.
//  2. Price the coordinate with the lowest bound to seed the incumbent.
//  3. Counting-sort the coordinates whose bound does not exceed the
//     incumbent into bfBuckets equal-width bound buckets; within a
//     bucket they keep canonical order.
//  4. Price bucket by bucket — every mapping cell of a coordinate whose
//     bound does not exceed the shrinking incumbent — and stop at the
//     first bucket whose smallest bound exceeds it.
//
// A coordinate's mapping cells stay consecutive on one goroutine, so
// the exact evaluator's per-coordinate analysis reuse still applies.
//
// Soundness is the argument at the top of parallel.go, which never
// depends on the visiting order: only a bound strictly above the exact
// energy of a feasible, priced candidate prunes, and the prefer fold
// picks the winner. Plans are therefore byte-identical to Exhaustive's
// at every worker count.
//
// Scratch is compact and capped in bytes. A coordinate costs one
// float32 bound (its float64 bound rounded toward −∞, so still
// admissible) and at most one int32 position in the visiting order; an
// admitted tiling costs its int32 canonical index (Space.At recovers
// the tiling). A chunk holds at most maxScratchBytes of that, so an
// extreme layer is scanned chunk by chunk with the incumbent carried
// across; every zoo layer fits in one chunk.
//
// Work accounting: Bounded counts every cell, each bounded once in
// step 1 (a coordinate bound covers its mapping cells); Evaluated
// counts exact pricings; every other cell was skipped on its
// coordinate's bound or its bucket's, so Pruned is
// Candidates − Evaluated and the invariant holds by construction.

import (
	"math"
	"sync"
	"sync/atomic"

	"rana/internal/pattern"
)

const (
	// bfBuckets is the number of bound buckets step 3 sorts into. Finer
	// buckets approach a true best-first order; the sort stays linear.
	bfBuckets = 1024
	// maxScratchBytes caps one chunk's best-first scratch: an int32
	// index per admitted tiling plus a float32 bound and an int32 order
	// slot per coordinate.
	maxScratchBytes = 1 << 20
)

// bestFirst is one best-first scan's pooled scratch.
type bestFirst struct {
	admitted []int32   // canonical indices of the chunk's admitted tilings
	lb       []float32 // per chunk coordinate, canonical order
	order    []int32   // admitted coordinates, bucket-ascending
	// start[j] is bucket j's first position in order; bucket bfBuckets
	// holds bounds above the bucketed range (+Inf when nothing feasible
	// has been priced yet).
	start [bfBuckets + 2]int32
	min   [bfBuckets + 1]float32
	inc   incumbentBound
}

var bestFirstPool = sync.Pool{New: func() any { return new(bestFirst) }}

// floor32 rounds x to a float32 toward −∞, so the result never exceeds
// x and a bound stays admissible.
func floor32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		if f > 0 {
			// One ulp down: positive floats order like their bits.
			return math.Float32frombits(math.Float32bits(f) - 1)
		}
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// bfRun is one scan's shared view: the problem, the scratch and the
// coordinate geometry. The fan-out methods take it by value, so only a
// parallel run moves a copy to the heap.
type bfRun[T any] struct {
	p                          Problem[T]
	sc                         *bestFirst
	kinds, points, travs, maps int
}

// coord decodes chunk coordinate c into (admitted index, kind index,
// point index, traversal index).
func (b *bfRun[T]) coord(c int32) (ai, ki, pi, tv int) {
	x := int(c)
	tv = x % b.travs
	x /= b.travs
	pi = x % b.points
	x /= b.points
	ki = x % b.kinds
	return x / b.kinds, ki, pi, tv
}

// lowerCoord is one coordinate's bound, the least over its mapping
// cells: through the goroutine's pricer in one call, or cell by cell
// through the stateless Bound without one.
func (b *bfRun[T]) lowerCoord(pr Pricer, k pattern.Kind, t pattern.Tiling, pi, tv int) float64 {
	if pr != nil {
		return pr.LowerCoord(k, t, pi, tv)
	}
	lb := math.Inf(1)
	for mi := 0; mi < b.maps; mi++ {
		if x := b.p.Bound(k, t, Cell{Point: pi, Trav: tv, Map: mi}); x < lb {
			lb = x
		}
	}
	return lb
}

func (b *bfRun[T]) newPricer() Pricer {
	if b.p.NewPricer != nil {
		return b.p.NewPricer()
	}
	return nil
}

// boundRange is step 1 over admitted tilings [lo, hi): it writes each
// coordinate's bound and returns the range's smallest bound (earliest
// coordinate on ties), its largest finite bound (−Inf if none) and the
// number of cell bounds computed.
func (b *bfRun[T]) boundRange(lo, hi int) (minLB float32, minC int32, maxFinite float32, bounded int) {
	pr := b.newPricer()
	if pr != nil {
		defer pr.Release()
	}
	minLB, minC = float32(math.Inf(1)), -1
	maxFinite = float32(math.Inf(-1))
	c := int32(lo * b.kinds * b.points * b.travs)
	bounded = (hi - lo) * b.kinds * b.points * b.travs * b.maps
	for ai := lo; ai < hi; ai++ {
		t := b.p.Space.At(int(b.sc.admitted[ai]))
		for _, k := range b.p.Kinds {
			for pi := 0; pi < b.points; pi++ {
				for tv := 0; tv < b.travs; tv++ {
					f := floor32(b.lowerCoord(pr, k, t, pi, tv))
					b.sc.lb[c] = f
					if minC < 0 || f < minLB {
						minLB, minC = f, c
					}
					if f > maxFinite && !math.IsInf(float64(f), 1) {
						maxFinite = f
					}
					c++
				}
			}
		}
	}
	return minLB, minC, maxFinite, bounded
}

// price prices every mapping cell of coordinate c, folding feasible
// results into local. The cells are not re-bounded one by one: after
// the coordinate's analysis a cell costs one pricing table lookup, about
// what its bound costs.
func (b *bfRun[T]) price(c int32, out *Outcome[T], local *Result[T]) error {
	ai, ki, pi, tv := b.coord(c)
	ti := int(b.sc.admitted[ai])
	ta := tilingAt{t: b.p.Space.At(ti), ti: ti}
	k := b.p.Kinds[ki]
	for mi := 0; mi < b.maps; mi++ {
		cell := Cell{Point: pi, Trav: tv, Map: mi}
		if err := b.p.Evaluate(k, ta.t, cell, out); err != nil {
			return err
		}
		local.Stats.Evaluated++
		if local.keep(k, ki, &ta, cell, out) {
			b.sc.inc.tighten(out.Energy)
		}
	}
	return nil
}

// sort is step 3: it counting-sorts every coordinate except seed whose
// bound does not exceed inc into bound buckets over [lo, hi], keeping
// canonical order within a bucket, and returns how many it placed.
// The bucket function is monotone in the bound, so every bound in a
// later bucket is at least every bound in an earlier one, which is what
// lets step 4 stop at the first bucket whose minimum exceeds inc.
func (b *bfRun[T]) sort(n int, seed int32, lo, hi, inc float64) int {
	sc := b.sc
	var scale float64
	if d := hi - lo; d > 0 {
		scale = bfBuckets / d
		if math.IsInf(scale, 1) {
			scale = 0
		}
	}
	bucket := func(x float64) int {
		if !(x <= hi) {
			return bfBuckets
		}
		t := (x - lo) * scale
		if !(t >= 0) {
			return 0
		}
		if t >= bfBuckets-1 {
			return bfBuckets - 1
		}
		return int(t)
	}
	count := &sc.start
	clear(count[:])
	for i := range sc.min {
		sc.min[i] = float32(math.Inf(1))
	}
	placed := 0
	for c := 0; c < n; c++ {
		x := sc.lb[c]
		if int32(c) == seed || float64(x) > inc {
			continue
		}
		j := bucket(float64(x))
		count[j+1]++
		if x < sc.min[j] {
			sc.min[j] = x
		}
		placed++
	}
	for j := 1; j < len(count); j++ {
		count[j] += count[j-1]
	}
	if cap(sc.order) < placed {
		sc.order = make([]int32, placed)
	}
	sc.order = sc.order[:placed]
	// Place through a running cursor per bucket, then shift the cursors
	// back into bucket starts: start[j] ends at bucket j's end, which is
	// bucket j+1's start.
	for c := 0; c < n; c++ {
		x := sc.lb[c]
		if int32(c) == seed || float64(x) > inc {
			continue
		}
		j := bucket(float64(x))
		sc.order[count[j]] = int32(c)
		count[j]++
	}
	copy(count[1:], count[:len(count)-1])
	count[0] = 0
	return placed
}

// drain is step 4 on one goroutine, pricing into its scratch out: it
// claims positions of the order through cursor, skips coordinates whose
// bound exceeds the incumbent, and stops everyone at the first bucket
// whose minimum exceeds it — buckets are monotone and the incumbent
// only falls, so every position after that is pruned for good. On an
// error it returns the failing coordinate.
func (b *bfRun[T]) drain(cursor *atomic.Int64, stop, failed *atomic.Bool, out *Outcome[T], local *Result[T]) (int32, error) {
	sc := b.sc
	n := int64(len(sc.order))
	j := 0
	for !stop.Load() && !failed.Load() {
		i := cursor.Add(1) - 1
		if i >= n {
			return -1, nil
		}
		for int64(sc.start[j+1]) <= i {
			j++
		}
		inc := sc.inc.load()
		if float64(sc.min[j]) > inc {
			stop.Store(true)
			return -1, nil
		}
		// Strictly greater only: a coordinate whose bound equals the
		// incumbent could tie exactly and win the tie-break.
		c := sc.order[i]
		if float64(sc.lb[c]) > inc {
			continue
		}
		if err := b.price(c, out, local); err != nil {
			failed.Store(true)
			return c, err
		}
	}
	return -1, nil
}

// bestFirstScan runs the best-first branch and bound over the whole
// space with up to workers goroutines. p.Bound must be non-nil.
func bestFirstScan[T any](p Problem[T], workers int) (Result[T], error) {
	var r Result[T]
	r.Stats.Workers = 1
	sc := bestFirstPool.Get().(*bestFirst)
	defer func() {
		sc.admitted = sc.admitted[:0]
		bestFirstPool.Put(sc)
	}()
	sc.inc.reset()
	b := bfRun[T]{p: p, sc: sc, kinds: len(p.Kinds), points: p.points(), travs: p.travs(), maps: p.maps()}
	perTiling := b.kinds * b.points * b.travs
	chunk := max(1, maxScratchBytes/(4+8*perTiling))
	out := p.newOutcome()
	defer p.freeOutcome(out)
	for ti := 0; ; {
		sc.admitted = sc.admitted[:0]
		for len(sc.admitted) < chunk {
			t, ok := p.Space.Next()
			if !ok {
				break
			}
			r.Stats.Tilings++
			ti++
			if p.Admit != nil && !p.Admit(t) {
				continue
			}
			r.Stats.Admitted++
			sc.admitted = append(sc.admitted, int32(ti-1))
		}
		if len(sc.admitted) == 0 {
			break
		}
		if perTiling > 0 {
			if err := b.chunk(&r, out, workers); err != nil {
				return Result[T]{}, err
			}
		}
	}
	if err := r.settle(p, out); err != nil {
		return Result[T]{}, err
	}
	return r, nil
}

// chunk runs steps 1–4 over the admitted tilings in the scratch,
// folding the chunk's winner into r.
func (b *bfRun[T]) chunk(r *Result[T], out *Outcome[T], workers int) error {
	sc := b.sc
	nt := len(sc.admitted)
	n := nt * b.kinds * b.points * b.travs
	if cap(sc.lb) < n {
		sc.lb = make([]float32, n)
	}
	sc.lb = sc.lb[:n]
	candidates := n * b.maps
	evaluated := r.Stats.Evaluated
	r.Stats.Candidates += candidates

	// Step 1.
	var minLB, maxFinite float32
	var seed int32
	var bounded int
	if w := min(workers, nt); w <= 1 {
		minLB, seed, maxFinite, bounded = b.boundRange(0, nt)
	} else {
		minLB, seed, maxFinite, bounded = b.boundParallel(nt, w)
		r.Stats.Workers = max(r.Stats.Workers, w)
	}
	r.Stats.Bounded += bounded

	// Step 2: the lowest-bound coordinate seeds the incumbent (when the
	// incumbent from an earlier chunk does not already prune it).
	if !(float64(minLB) > sc.inc.load()) {
		if err := b.price(seed, out, r); err != nil {
			return err
		}
	}

	// Step 3.
	inc := sc.inc.load()
	hi := inc
	if math.IsInf(inc, 1) {
		hi = float64(maxFinite)
	}
	placed := b.sort(n, seed, float64(minLB), hi, inc)

	// Step 4.
	if w := min(workers, placed); w <= 1 {
		var cursor atomic.Int64
		var stop, failed atomic.Bool
		if _, err := b.drain(&cursor, &stop, &failed, out, r); err != nil {
			return err
		}
	} else if err := b.drainParallel(r, w); err != nil {
		return err
	}
	r.Stats.Pruned += candidates - (r.Stats.Evaluated - evaluated)
	return nil
}

// boundParallel is step 1 over the chunk's nt admitted tilings, fanned
// out over workers contiguous tiling ranges. It reduces the ranges'
// minima in range order, so the seed is the earliest coordinate among
// equal minima at every worker count.
func (b bfRun[T]) boundParallel(nt, workers int) (minLB float32, seed int32, maxFinite float32, bounded int) {
	type part struct {
		minLB, maxFinite float32
		minC             int32
		bounded          int
	}
	parts := make([]part, workers)
	fanOut(workers, nil, func(w int) {
		q := &parts[w]
		q.minLB, q.minC, q.maxFinite, q.bounded = b.boundRange(w*nt/workers, (w+1)*nt/workers)
	})
	minLB, seed, maxFinite = float32(math.Inf(1)), -1, float32(math.Inf(-1))
	for _, q := range parts {
		if q.minC >= 0 && (seed < 0 || q.minLB < minLB) {
			minLB, seed = q.minLB, q.minC
		}
		maxFinite = max(maxFinite, q.maxFinite)
		bounded += q.bounded
	}
	return minLB, seed, maxFinite, bounded
}

// drainParallel is step 4 across workers goroutines sharing the order
// cursor and the incumbent bound. Per-worker incumbents fold into r
// through prefer; the earliest coordinate's error wins when several
// workers fail.
func (b bfRun[T]) drainParallel(r *Result[T], workers int) error {
	r.Stats.Workers = max(r.Stats.Workers, workers)
	var cursor atomic.Int64
	var stop, failed atomic.Bool
	type failure struct {
		err error
		at  int32
	}
	locals := make([]Result[T], workers)
	fails := make([]failure, workers)
	fanOut(workers, &failed, func(w int) {
		out := b.p.newOutcome()
		defer b.p.freeOutcome(out)
		c, err := b.drain(&cursor, &stop, &failed, out, &locals[w])
		fails[w] = failure{err: err, at: c}
	})
	var fail *failure
	for w := range fails {
		if f := &fails[w]; f.err != nil && (fail == nil || f.at < fail.at) {
			fail = f
		}
	}
	if fail != nil {
		return fail.err
	}
	for w := range locals {
		l := &locals[w]
		r.Stats.Evaluated += l.Stats.Evaluated
		if l.Found && (!r.Found || prefer(l.Outcome.Energy, &l.Candidate, r.Outcome.Energy, &r.Candidate)) {
			r.improve(&l.Candidate, &l.Outcome)
		}
	}
	return nil
}
