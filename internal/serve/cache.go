package serve

// The plan cache: a bounded LRU of marshaled response bodies keyed by
// the canonical request hash, fronted by a singleflight group so N
// concurrent identical requests run exactly one underlying schedule.
//
// Cached values are the final response *bytes*, not decoded plans, so a
// cache hit is byte-identical to the miss that populated it — a property
// the race tests assert and clients may rely on (e.g. for their own
// content-addressed stores).
//
// The LRU also carries a secondary index, the body alias: the digests
// of request bodies that resolved to an entry's key, so a repeat of the
// same bytes reaches the entry without decoding, resolving or hashing
// the canonical form again. An entry holds at most maxAliases digests
// (the oldest is replaced) and its digests die with it, so the index is
// bounded by the LRU in entries and in bytes.
//
// Both structures are stdlib-only: container/list for the LRU,
// sync.Cond-free channel signaling for the flight group.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"sync"
)

// maxAliases bounds the body digests one LRU entry keeps. Spellings of
// one request beyond a few (named vs. spelled-out network, field order,
// whitespace) are rare; an overflowing spelling only loses its shortcut.
const maxAliases = 4

// aliasKey identifies a request body on one endpoint: the endpoint name
// and the SHA-256 of the raw bytes.
type aliasKey struct {
	endpoint string
	sum      [sha256.Size]byte
}

// aliasRef is what a body digest resolved to: the LRU entry, and the
// ladder rung whose counters a hit replays.
type aliasRef struct {
	el   *list.Element
	rung rung
}

// lru is a mutex-guarded bounded LRU map of response bodies.
type lru struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *lruEntry
	items   map[string]*list.Element
	aliases map[aliasKey]aliasRef
}

type lruEntry struct {
	key  string
	body []byte
	// aliases are the body digests resolved to key, written round-robin:
	// slot nalias%maxAliases is the next (and, once full, the oldest).
	aliases [maxAliases]aliasKey
	nalias  int
}

// newLRU returns an LRU holding up to max entries (max <= 0 disables
// caching entirely).
func newLRU(max int) *lru {
	return &lru{max: max, order: list.New(), items: make(map[string]*list.Element),
		aliases: make(map[aliasKey]aliasRef)}
}

// Get returns the cached body and promotes the entry.
func (c *lru) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
}

// Add inserts or refreshes an entry, evicting the least recently used
// entry beyond capacity.
func (c *lru) Add(key string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).body = body
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, body: body})
	for c.order.Len() > c.max {
		c.unlink(c.order.Back())
	}
}

// unlink drops an entry and every body digest resolved to it.
func (c *lru) unlink(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.items, e.key)
	for _, d := range e.aliases[:min(e.nalias, maxAliases)] {
		delete(c.aliases, d)
	}
}

// Alias records that the body digest d resolved to key on rung r. It is
// a no-op unless key is cached: the digest lives exactly as long as the
// entry it points at.
func (c *lru) Alias(d aliasKey, key string, r rung) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, dup := c.aliases[d]; dup {
		// Resolution is a pure function of the body, so a registered
		// digest already points at this very entry.
		return
	}
	e := el.Value.(*lruEntry)
	slot := e.nalias % maxAliases
	if e.nalias >= maxAliases {
		delete(c.aliases, e.aliases[slot])
	}
	e.aliases[slot] = d
	e.nalias++
	c.aliases[d] = aliasRef{el: el, rung: r}
}

// GetAlias returns the entry a body digest resolved to, promoting it
// like Get.
func (c *lru) GetAlias(d aliasKey) (key string, body []byte, r rung, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.aliases[d]
	if !ok {
		return "", nil, 0, false
	}
	c.order.MoveToFront(ref.el)
	e := ref.el.Value.(*lruEntry)
	return e.key, e.body, ref.rung, true
}

// AliasLen returns the number of body digests indexed.
func (c *lru) AliasLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.aliases)
}

// Remove drops an entry if present, reporting whether it existed. The
// server uses it to evict a key whose computation later proved poisoned
// (e.g. a panic on a colliding degraded variant) so the next request
// recomputes instead of serving suspect bytes.
func (c *lru) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(el)
	return true
}

// Len returns the number of cached entries.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight is one in-progress computation shared by every concurrent
// request with the same key.
type flight struct {
	done   chan struct{} // closed when body/err are final
	body   []byte
	err    error
	ctx    context.Context // the computation's context
	cancel context.CancelFunc
	refs   int // waiters still interested; 0 cancels ctx
}

// flightGroup deduplicates concurrent computations by key. Unlike the
// classic singleflight, the computation does not run under any single
// request's context: it gets its own context (derived from the server's
// base context) that is canceled only when every waiter has abandoned
// the request — one impatient client cannot poison the result for the
// others, and a fully abandoned computation stops exploring layers.
type flightGroup struct {
	mu      sync.Mutex
	base    context.Context // server lifetime; Shutdown cancels it
	flights map[string]*flight

	// onDone, if set, observes every computation's outcome exactly once
	// — regardless of how many waiters shared the flight — after the
	// flight has left the map and before waiters are released. The
	// server hangs panic accounting, cache eviction and circuit-breaker
	// bookkeeping off it.
	onDone func(key string, err error)
}

// panicError is a recovered computation panic, carried to every waiter
// of the flight as an ordinary error. The stack is for the server log;
// Error deliberately omits it so clients never see goroutine dumps.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("internal panic: %v", e.val) }

func newFlightGroup(base context.Context) *flightGroup {
	return &flightGroup{base: base, flights: make(map[string]*flight)}
}

// Do returns the result of fn for key, executing fn at most once across
// concurrent callers. shared reports whether this caller joined an
// existing flight. A caller whose ctx expires detaches and returns
// ctx.Err(); the flight keeps running while any caller remains.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	f, ok := g.flights[key]
	if ok {
		f.refs++
		g.mu.Unlock()
		return g.wait(ctx, key, f, true)
	}
	fctx, cancel := context.WithCancel(g.base)
	f = &flight{done: make(chan struct{}), ctx: fctx, cancel: cancel, refs: 1}
	g.flights[key] = f
	g.mu.Unlock()

	go func() {
		// The deferred recover is the serving layer's panic isolation:
		// fn runs library code on behalf of N waiters, and a panic here
		// would otherwise kill the whole process (a caller-side recover
		// cannot catch a panic in another goroutine). It becomes one
		// *panicError that every waiter observes, counted exactly once
		// via onDone.
		defer func() {
			if r := recover(); r != nil {
				f.body, f.err = nil, &panicError{val: r, stack: debug.Stack()}
			}
			g.mu.Lock()
			delete(g.flights, key)
			g.mu.Unlock()
			if g.onDone != nil {
				g.onDone(key, f.err)
			}
			close(f.done)
			f.cancel()
		}()
		f.body, f.err = fn(f.ctx)
	}()
	return g.wait(ctx, key, f, false)
}

// wait blocks for the flight's result or the caller's cancellation.
func (g *flightGroup) wait(ctx context.Context, key string, f *flight, shared bool) ([]byte, bool, error) {
	select {
	case <-f.done:
		return f.body, shared, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.refs--
		if f.refs == 0 {
			// Last interested caller gone: stop the computation. The
			// flight goroutine still runs to completion (observing the
			// canceled context) and removes itself from the map.
			f.cancel()
		}
		g.mu.Unlock()
		return nil, shared, ctx.Err()
	}
}
