package sched

// The prefix-level partial-evaluation memo. The whole-layer Memo can
// only reuse work when two layers share their entire shape, and
// coarsening its key over M is unsound (the plan genuinely depends on
// M — TestMemoNearDuplicateShapesStayDistinct pins why). The bound's
// *prefix sums* are a different story: prefixSums reads exactly
// (kind, Tm, Tn) and the layer's (N, K, H, L) sub-shape — never M, the
// output geometry, the tiling tail, the config or the pricing tables —
// so a memo keyed on precisely those inputs is sound by construction.
// GoogLeNet's inception branches, which differ mostly in M (3x3_reduce
// vs 5x5_reduce: same N/H/L/K ladder), miss the layer memo but hit
// here, which is where the "near-duplicate shapes reuse pricing work"
// win comes from.

import (
	"sync"
	"sync/atomic"

	"rana/internal/pattern"
)

// DefaultPrefixCapacity bounds a PrefixMemo's entry count when
// NewPrefixMemo is given no explicit capacity. One layer contributes
// |Tm axis| × |Tn axis| × kinds entries (a few hundred); 1<<16 holds a
// model zoo's worth while bounding a shared long-lived memo against
// hostile shape streams.
const DefaultPrefixCapacity = 1 << 16

// prefixKey identifies one prefix-sum computation: the candidate's
// (kind, Tm, Tn) prefix coordinate plus every layer-shape field
// prefixSums reads. All effective (per-group) values, like the bound's.
type prefixKey struct {
	kind   pattern.Kind
	tm, tn int
	n, k   int // input channels, kernel size
	h, l   int // input feature-map height and width (OD's working set)
}

// PrefixMemo caches bound prefix sums at the (kind, Tm, Tn) level,
// shared across the layers of one compile and — when installed
// server-wide via Options.Prefix — across compiles. Safe for concurrent
// use. The zero value is not usable; call NewPrefixMemo.
type PrefixMemo struct {
	mu      sync.RWMutex
	entries map[prefixKey]prefixSums
	cap     int
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewPrefixMemo returns a prefix memo bounded to capacity entries
// (<= 0 selects DefaultPrefixCapacity). When the table is full, new
// prefixes are computed without being recorded — the memo degrades to
// a no-op, never evicts.
func NewPrefixMemo(capacity int) *PrefixMemo {
	if capacity <= 0 {
		capacity = DefaultPrefixCapacity
	}
	return &PrefixMemo{entries: make(map[prefixKey]prefixSums), cap: capacity}
}

// PrefixStats is a point-in-time snapshot of a prefix memo's
// effectiveness.
type PrefixStats struct {
	// Hits counts lookups served from a cached entry.
	Hits uint64
	// Misses counts lookups that had to compute (and, below capacity,
	// record) the sums.
	Misses uint64
	// Entries is the current table size.
	Entries int
}

// Stats snapshots the memo counters.
func (p *PrefixMemo) Stats() PrefixStats {
	p.mu.RLock()
	n := len(p.entries)
	p.mu.RUnlock()
	return PrefixStats{Hits: p.hits.Load(), Misses: p.misses.Load(), Entries: n}
}

// lookup returns the prefix sums for (kind, tm, tn) against b's layer
// shape, computing and recording them on a miss. Entries are pure
// integer functions of their key, so concurrent duplicate computation
// is harmless (both writers store the identical value).
func (p *PrefixMemo) lookup(b *bound, k pattern.Kind, tm, tn int) prefixSums {
	key := prefixKey{kind: k, tm: tm, tn: tn, n: b.l.N, k: b.l.K, h: b.l.H, l: b.l.L}
	p.mu.RLock()
	s, ok := p.entries[key]
	p.mu.RUnlock()
	if ok {
		p.hits.Add(1)
		return s
	}
	p.misses.Add(1)
	s = b.prefixSums(k, tm, tn)
	p.mu.Lock()
	if len(p.entries) < p.cap {
		p.entries[key] = s
	}
	p.mu.Unlock()
	return s
}

// reset clears entries and counters while keeping the map's buckets —
// what returns a pooled per-compile memo to its cold state.
func (p *PrefixMemo) reset() {
	p.mu.Lock()
	clear(p.entries)
	p.mu.Unlock()
	p.hits.Store(0)
	p.misses.Store(0)
}

// compilePrefixPool recycles per-compile prefix memos: each compile
// that neither supplies Options.Prefix nor disables incremental pricing
// leases one, and it is reset (entries and counters) on release so
// per-compile hit rates mean what they say.
var compilePrefixPool = sync.Pool{New: func() any {
	p := NewPrefixMemo(0)
	p.entries = make(map[prefixKey]prefixSums, compilePrefixHint)
	return p
}}

// compilePrefixHint pre-sizes the pooled per-compile prefix memos' maps.
// clear() re-seeds a map's hash on every reset, so tables grown to just
// fit one compile's keys can split on the next compile — an allocation
// in the steady-state compile. The hint lays out four full-size tables
// up front, about what growing to GoogLeNet's ~2,800 prefixes builds
// anyway, and at that load a table is many standard deviations from
// filling whatever the seed.
const compilePrefixHint = 2048

func getCompilePrefix() *PrefixMemo { return compilePrefixPool.Get().(*PrefixMemo) }

func putCompilePrefix(p *PrefixMemo) {
	p.reset()
	compilePrefixPool.Put(p)
}
