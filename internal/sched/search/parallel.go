package search

// The parallel scans. The exhaustive scan partitions the admitted
// tilings across a bounded worker pool; the best-first scan
// (bestfirst.go) fans its bounding pass out over tiling ranges and its
// pricing pass over bound-ordered coordinates, with the workers sharing
// the incumbent's exact energy through an atomic float so a good
// candidate found by one worker immediately tightens every other
// worker's pruning test.
//
// Determinism argument (the reduction can never move a golden schedule):
//
//  1. A candidate is pruned only when its admissible lower bound is
//     STRICTLY greater than the shared bound, and the shared bound is
//     only ever the exact energy of some feasible, already-evaluated
//     candidate. The global argmin's energy is ≤ every such value, so a
//     pruned candidate's exact energy is strictly greater than the
//     global minimum — it can neither win nor tie. Which candidates get
//     pruned varies with timing and visiting order; whether the argmin
//     survives does not.
//  2. Every surviving feasible candidate flows into a per-worker
//     incumbent kept under the canonical preference order (prefer:
//     energy, then kind, tiling, point, traversal and mapping index),
//     and the final reduction folds the per-worker incumbents through
//     the same order. prefer is a strict total order on candidates (no
//     two candidates share all five indices), so the fold's result is
//     the unique preference-minimal survivor regardless of partition,
//     order or timing — exactly what the sequential strict-< first-wins
//     loop returns.
//
// Work accounting (Stats) is deterministic for Tilings, Admitted and
// Candidates; the Bounded/Pruned/Evaluated split of a parallel run
// legitimately varies with how early the shared bound tightens. The
// invariant Candidates == Evaluated + Pruned holds on every error-free
// run.

import (
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"rana/internal/pattern"
)

// stack snapshots the panicking worker's stack for the re-raised value.
func stack() []byte { return debug.Stack() }

// tilingAt is one admitted tiling with its canonical enumeration index.
type tilingAt struct {
	t  pattern.Tiling
	ti int
}

// admittedPool recycles the materialized admitted-tiling scratch across
// explorations so the steady-state parallel scan allocates no per-layer
// slice.
var admittedPool = sync.Pool{
	New: func() any { return new([]tilingAt) },
}

// collectAdmitted drains the space once — sequentially, so Tilings and
// Admitted stay deterministic and the canonical tiling indices match the
// streaming loop's — into a pooled scratch slice. The caller must hand
// the slice back via releaseAdmitted.
func collectAdmitted[T any](p Problem[T], stats *Stats) *[]tilingAt {
	buf := admittedPool.Get().(*[]tilingAt)
	admitted := (*buf)[:0]
	for ti := 0; ; ti++ {
		t, ok := p.Space.Next()
		if !ok {
			break
		}
		stats.Tilings++
		if p.Admit != nil && !p.Admit(t) {
			continue
		}
		stats.Admitted++
		admitted = append(admitted, tilingAt{t: t, ti: ti})
	}
	*buf = admitted
	return buf
}

func releaseAdmitted(buf *[]tilingAt) {
	*buf = (*buf)[:0]
	admittedPool.Put(buf)
}

// incumbentBound is the shared atomic upper bound on the optimum: the
// smallest exact energy of any feasible candidate evaluated so far,
// +Inf after reset. It only ever decreases.
type incumbentBound struct {
	bits atomic.Uint64
}

// reset restarts the bound at +Inf.
func (b *incumbentBound) reset() { b.bits.Store(math.Float64bits(math.Inf(1))) }

func (b *incumbentBound) load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// tighten lowers the bound to e if e is smaller (monotone CAS loop).
func (b *incumbentBound) tighten(e float64) {
	for {
		cur := b.bits.Load()
		if math.Float64frombits(cur) <= e {
			return
		}
		if b.bits.CompareAndSwap(cur, math.Float64bits(e)) {
			return
		}
	}
}

// workerPanic carries a panic out of a worker goroutine so the
// coordinating goroutine can re-raise it where the scheduler's per-layer
// recover (sched.PanicError) can see it. The original worker stack rides
// along for diagnosis.
type workerPanic struct {
	Value any
	Stack []byte
}

// workerFailure is one worker's first evaluator error, tagged with the
// candidate position so the coordinator can surface a canonical-earliest
// error when several workers fail in one run.
type workerFailure struct {
	err error
	c   Candidate
}

// fanOut runs work(w) for every w in [0, workers) on its own goroutine
// and waits for all of them. A panicking worker sets failed (when
// non-nil), so its peers can stop early, and the first panic is
// re-raised on the calling goroutine, where the scheduler's per-layer
// recover converts it into a *sched.PanicError: a poisoned candidate
// cannot kill a serving process.
func fanOut(workers int, failed *atomic.Bool, work func(w int)) {
	var wg sync.WaitGroup
	panics := make([]*workerPanic, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[w] = &workerPanic{Value: v, Stack: stack()}
					if failed != nil {
						failed.Store(true)
					}
				}
			}()
			work(w)
		}()
	}
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
}

// scanParallel is the exhaustive scan with the admitted space
// partitioned across `workers` goroutines. Plans are byte-identical to
// the sequential scan by the argument at the top of this file.
func scanParallel[T any](p Problem[T], workers int) (Result[T], error) {
	var r Result[T]
	buf := collectAdmitted(p, &r.Stats)
	defer releaseAdmitted(buf)
	admitted := *buf

	points, travs, maps := p.points(), p.travs(), p.maps()
	workers = max(1, min(workers, len(admitted)))
	r.Stats.Workers = workers

	// Workers pull fixed batches of tilings through an atomic cursor —
	// cheap dynamic load balancing without channels.
	batch := len(admitted) / (workers * 8)
	if batch < 1 {
		batch = 1
	}
	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		locals   = make([]Result[T], workers)
		failures = make([]*workerFailure, workers)
	)
	fanOut(workers, &failed, func(w int) {
		local := &locals[w]
		out := p.newOutcome()
		defer p.freeOutcome(out)
		for !failed.Load() {
			lo := int(cursor.Add(int64(batch))) - batch
			if lo >= len(admitted) {
				return
			}
			hi := min(lo+batch, len(admitted))
			for i := lo; i < hi; i++ {
				ta := &admitted[i]
				for ki, k := range p.Kinds {
					for pi := 0; pi < points; pi++ {
						for tv := 0; tv < travs; tv++ {
							for mi := 0; mi < maps; mi++ {
								local.Stats.Candidates++
								cell := Cell{Point: pi, Trav: tv, Map: mi}
								if err := p.Evaluate(k, ta.t, cell, out); err != nil {
									failures[w] = &workerFailure{err: err,
										c: Candidate{Kind: k, KindIdx: ki, Tiling: ta.t, TilingIdx: ta.ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}}
									failed.Store(true)
									return
								}
								local.Stats.Evaluated++
								local.keep(k, ki, ta, cell, out)
							}
						}
					}
				}
			}
		}
	})
	var fail *workerFailure
	for _, f := range failures {
		if f != nil && (fail == nil || canonicalBefore(&f.c, &fail.c)) {
			fail = f
		}
	}
	if fail != nil {
		return Result[T]{}, fail.err
	}
	for w := range locals {
		l := &locals[w]
		r.Stats.Add(l.Stats)
		if l.Found && (!r.Found || prefer(l.Outcome.Energy, &l.Candidate, r.Outcome.Energy, &r.Candidate)) {
			r.improve(&l.Candidate, &l.Outcome)
		}
	}
	// The workers kept their incumbents by candidate and energy only;
	// the winner's Value is priced once, here.
	out := p.newOutcome()
	defer p.freeOutcome(out)
	if err := r.settle(p, out); err != nil {
		return Result[T]{}, err
	}
	return r, nil
}
